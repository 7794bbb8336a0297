//! Loading and saving datasets as plain CSV, so the library runs on real
//! interaction logs (e.g. an export of Yelp2018 or Amazon reviews), not only
//! on the synthetic generators.
//!
//! Two files describe a dataset:
//!
//! - **items CSV** — header `item_id,price,category`, one row per item.
//!   `item_id` and `category` are arbitrary strings; prices are positive
//!   floats.
//! - **interactions CSV** — header `user_id,item_id,timestamp`, one row per
//!   event; `timestamp` is any non-negative integer (events are sorted on
//!   load).
//!
//! [`load_dataset`] maps string ids to dense indices, quantizes prices with
//! the chosen scheme and returns the [`Dataset`] plus the id maps.

use std::fmt::Write as _;
use std::fs;
use std::hash::{BuildHasher, RandomState};
use std::io::{self, Write as _};
use std::path::Path;

use crate::quantize::{quantize, Quantization};
use crate::types::{Dataset, Interaction};

/// Mapping between the source string ids and the dense dataset indices.
#[derive(Clone, Debug, Default)]
pub struct IdMaps {
    /// Original user id per dense user index.
    pub users: Vec<String>,
    /// Original item id per dense item index.
    pub items: Vec<String>,
    /// Original category name per dense category index.
    pub categories: Vec<String>,
}

/// Errors raised while parsing dataset CSVs.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A malformed row, with file label, 1-based line number and reason.
    Parse {
        /// Which file the error came from ("items" / "interactions").
        file: &'static str,
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// An interaction references an item absent from the items CSV.
    UnknownItem {
        /// 1-based line number in the interactions file.
        line: usize,
        /// The offending item id.
        item_id: String,
    },
    /// The same (user, item, timestamp) event appears twice — almost always
    /// a doubled export, which would silently skew implicit-feedback counts.
    DuplicateInteraction {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The offending user id.
        user_id: String,
        /// The offending item id.
        item_id: String,
    },
    /// The interactions CSV contains no events, so there is nothing to
    /// split or train on.
    EmptyDataset,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse { file, line, reason } => {
                write!(f, "{file} csv, line {line}: {reason}")
            }
            LoadError::UnknownItem { line, item_id } => {
                write!(f, "interactions csv, line {line}: unknown item id {item_id:?}")
            }
            LoadError::DuplicateInteraction { line, user_id, item_id } => {
                write!(
                    f,
                    "interactions csv, line {line}: duplicate event for user \
                     {user_id:?}, item {item_id:?}"
                )
            }
            LoadError::EmptyDataset => write!(f, "interactions csv contains no events"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Loads a dataset from `items.csv` + `interactions.csv` content strings.
///
/// This is the pure-parsing core of [`load_dataset`], usable without a
/// filesystem (tests, embedding in services). The first bad line of a file
/// is reported, whatever is wrong with it.
pub fn parse_dataset(
    items_csv: &str,
    interactions_csv: &str,
    n_price_levels: usize,
    scheme: Quantization,
) -> Result<(Dataset, IdMaps), LoadError> {
    // --- items -----------------------------------------------------------
    let mut item_ids = Interner::default();
    let mut category_ids = Interner::default();
    let mut prices: Vec<f64> = Vec::new();
    let mut categories: Vec<usize> = Vec::new();
    for (lineno, line) in items_csv.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() {
            continue; // header / blank
        }
        let mut fields = line.splitn(3, ',');
        let (id, price, cat) = match (fields.next(), fields.next(), fields.next()) {
            (Some(a), Some(b), Some(c)) => (a.trim(), b.trim(), c.trim()),
            _ => {
                return Err(LoadError::Parse {
                    file: "items",
                    line: lineno + 1,
                    reason: "expected item_id,price,category".into(),
                })
            }
        };
        if item_ids.id_of(id).is_some() {
            return Err(LoadError::Parse {
                file: "items",
                line: lineno + 1,
                reason: format!("duplicate item id {id:?}"),
            });
        }
        let price: f64 = price.parse().map_err(|_| LoadError::Parse {
            file: "items",
            line: lineno + 1,
            reason: format!("bad price {price:?}"),
        })?;
        if !(price.is_finite() && price > 0.0) {
            return Err(LoadError::Parse {
                file: "items",
                line: lineno + 1,
                reason: format!("price must be positive, got {price}"),
            });
        }
        categories.push(category_ids.intern(cat));
        item_ids.intern(id);
        prices.push(price);
    }
    if item_ids.len() == 0 {
        return Err(LoadError::Parse { file: "items", line: 1, reason: "no items found".into() });
    }

    // --- interactions ------------------------------------------------------
    let (interactions, user_ids) = parse_interactions(interactions_csv, &item_ids)?;
    let maps = IdMaps {
        users: user_ids.into_keys(),
        items: item_ids.into_keys(),
        categories: category_ids.into_keys(),
    };

    let n_categories = maps.categories.len();
    let item_price_level = quantize(&prices, &categories, n_categories, n_price_levels, scheme);
    let dataset = Dataset {
        n_users: maps.users.len(),
        n_items: maps.items.len(),
        n_categories,
        n_price_levels,
        item_price: prices,
        item_category: categories,
        item_price_level,
        interactions,
    };
    dataset.validate();
    Ok((dataset, maps))
}

/// Parses the interactions CSV into the timestamp-sorted log (ties keep
/// file order) and the user ids, indexed by first appearance.
///
/// One pass parses every line up to the first bad one. Repeated events
/// are found afterwards by sorting, not by a set probed per line; a repeat
/// on an earlier line than the bad one still wins, so the error is the
/// one a line-by-line check would stop at. The pass keeps no line per
/// event: an event's line follows from its index and the blank lines
/// before it, so the log it fills is the one returned when the file is
/// already in time order, as exports usually are.
fn parse_interactions(
    csv: &str,
    items: &Interner,
) -> Result<(Vec<Interaction>, Interner), LoadError> {
    let mut users = Interner::default();
    let mut log = Vec::with_capacity(csv.bytes().filter(|&b| b == b'\n').count());
    // For each blank line, the number of events before it.
    let mut blanks = Vec::new();
    let mut bad_line = None;
    for (lineno, line) in csv.lines().enumerate() {
        if lineno == 0 {
            continue; // header
        }
        if line.trim().is_empty() {
            blanks.push(log.len());
            continue;
        }
        match parse_event(line, lineno + 1, items, &mut users) {
            Ok(event) => log.push(event),
            Err(e) => {
                bad_line = Some(e);
                break;
            }
        }
    }
    // Events of one timestamp keep their file order.
    let mut by_time: Vec<usize> = (0..log.len()).collect();
    by_time.sort_unstable_by_key(|&k| (log[k].timestamp, k));
    if let Some(k) = first_repeat(&log, &by_time) {
        let event = log[k];
        return Err(LoadError::DuplicateInteraction {
            // The header, then the events and blank lines before event `k`.
            line: k + 2 + blanks.partition_point(|&before| before <= k),
            user_id: users.key(event.user as usize).to_string(),
            item_id: items.key(event.item as usize).to_string(),
        });
    }
    if let Some(e) = bad_line {
        return Err(e);
    }
    if log.is_empty() {
        return Err(LoadError::EmptyDataset);
    }
    if !log.is_sorted_by_key(|it| it.timestamp) {
        log = by_time.iter().map(|&k| log[k]).collect();
    }
    Ok((log, users))
}

/// Parses one `user_id,item_id,timestamp` row, checking its fields in
/// column order; only a user's first row copies its id.
fn parse_event(
    line: &str,
    lineno: usize,
    items: &Interner,
    users: &mut Interner,
) -> Result<Interaction, LoadError> {
    let mut fields = line.splitn(3, ',');
    let (user, item, ts) = match (fields.next(), fields.next(), fields.next()) {
        (Some(a), Some(b), Some(c)) => (a.trim(), b.trim(), c.trim()),
        _ => {
            return Err(LoadError::Parse {
                file: "interactions",
                line: lineno,
                reason: "expected user_id,item_id,timestamp".into(),
            })
        }
    };
    let item_id = items
        .id_of(item)
        .ok_or_else(|| LoadError::UnknownItem { line: lineno, item_id: item.to_string() })?;
    let timestamp: u64 = ts.parse().map_err(|_| LoadError::Parse {
        file: "interactions",
        line: lineno,
        reason: format!("bad timestamp {ts:?}"),
    })?;
    let user_id = users.intern(user);
    Ok(Interaction {
        // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
        user: user_id as u32,
        // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
        item: item_id as u32,
        timestamp,
    })
}

/// The index in `log` of the earliest event that repeats an earlier
/// (user, item, timestamp) event, if any. `by_time` lists `log`'s indices
/// in (timestamp, index) order, so repeats share a run of one timestamp:
/// only runs longer than one are sorted, as packed (user, item, index)
/// keys, to find them.
fn first_repeat(log: &[Interaction], by_time: &[usize]) -> Option<usize> {
    let mut first: Option<usize> = None;
    let mut run = Vec::new();
    for same_time in by_time.chunk_by(|&a, &b| log[a].timestamp == log[b].timestamp) {
        if same_time.len() < 2 {
            continue;
        }
        run.clear();
        run.extend(same_time.iter().map(|&k| (log[k].user, log[k].item, k)));
        run.sort_unstable();
        for pair in run.windows(2) {
            let ((u, i, _), (v, j, k)) = (pair[0], pair[1]);
            if (u, i) == (v, j) && first.is_none_or(|f| k < f) {
                first = Some(k);
            }
        }
    }
    first
}

/// Dense ids for the distinct strings of one CSV column, numbered in order
/// of first appearance.
///
/// The keys sit end to end in one arena, so a lookup compares the probe
/// with bytes packed together rather than with a `String` per key on the
/// heap, and only a key's first occurrence copies it. The keys come from
/// operator files, so slots are placed by std's keyed hasher.
#[derive(Default)]
struct Interner {
    hasher: RandomState,
    /// Every key, end to end in id order.
    arena: String,
    /// `ends[id]` is where key `id` ends in `arena`; it starts where key
    /// `id - 1` ends.
    ends: Vec<usize>,
    /// Each key's hash, so growing the table hashes nothing again.
    hashes: Vec<u64>,
    /// Open-addressed table of `id + 1` (0 marks an empty slot); its
    /// length is a power of two and it is at most half full.
    slots: Vec<usize>,
}

impl Interner {
    /// Number of distinct keys.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The key with id `id`.
    fn key(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start..self.ends[id]]
    }

    /// The id of `key`, if it has one.
    fn id_of(&self, key: &str) -> Option<usize> {
        self.probe(key, self.hasher.hash_one(key)).ok()
    }

    /// The id of `key`, assigning the next one on its first appearance.
    fn intern(&mut self, key: &str) -> usize {
        let hash = self.hasher.hash_one(key);
        let slot = match self.probe(key, hash) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.len();
        self.arena.push_str(key);
        self.ends.push(self.arena.len());
        self.hashes.push(hash);
        if 2 * (id + 1) > self.slots.len() {
            self.grow();
        } else {
            self.slots[slot] = id + 1;
        }
        id
    }

    /// `Ok(id)` for a stored `key`, else `Err` with the empty slot where
    /// it belongs. Linear probing from the hash's home slot.
    fn probe(&self, key: &str, hash: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                stored => {
                    let id = stored - 1;
                    if self.hashes[id] == hash && self.key(id) == key {
                        return Ok(id);
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table (16 slots at first) and places every key again.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![0; len];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & (len - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = id + 1;
        }
    }

    /// The keys in id order.
    fn into_keys(self) -> Vec<String> {
        (0..self.len()).map(|id| self.key(id).to_string()).collect()
    }
}

/// Loads a dataset from two CSV files on disk.
pub fn load_dataset(
    items_path: &Path,
    interactions_path: &Path,
    n_price_levels: usize,
    scheme: Quantization,
) -> Result<(Dataset, IdMaps), LoadError> {
    let items = fs::read_to_string(items_path)?;
    let inter = fs::read_to_string(interactions_path)?;
    parse_dataset(&items, &inter, n_price_levels, scheme)
}

/// Serializes a dataset back to `(items_csv, interactions_csv)` strings.
/// Ids are the dense indices (or the original ids when `maps` is given).
pub fn dataset_to_csv(dataset: &Dataset, maps: Option<&IdMaps>) -> (String, String) {
    let item_name =
        |i: usize| -> String { maps.map(|m| m.items[i].clone()).unwrap_or_else(|| i.to_string()) };
    let user_name =
        |u: usize| -> String { maps.map(|m| m.users[u].clone()).unwrap_or_else(|| u.to_string()) };
    let cat_name = |c: usize| -> String {
        maps.map(|m| m.categories[c].clone()).unwrap_or_else(|| c.to_string())
    };
    let mut items = String::from("item_id,price,category\n");
    for i in 0..dataset.n_items {
        let _ = writeln!(
            items,
            "{},{},{}",
            item_name(i),
            dataset.item_price[i],
            cat_name(dataset.item_category[i])
        );
    }
    let mut inter = String::from("user_id,item_id,timestamp\n");
    for it in &dataset.interactions {
        let _ = writeln!(
            inter,
            "{},{},{}",
            user_name(it.user as usize),
            item_name(it.item as usize),
            it.timestamp
        );
    }
    (items, inter)
}

/// Writes `contents` to `path` atomically: a temporary sibling is written
/// and fsynced first, then renamed over the target, so a crash mid-save
/// never leaves a half-written CSV behind.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("csv.tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(contents.as_bytes())?;
    file.sync_all()?;
    fs::rename(&tmp, path)
}

/// Writes a dataset to two CSV files. Each file is written atomically
/// (temp file + rename), so an interrupted save cannot tear an existing
/// dataset on disk.
pub fn save_dataset(
    dataset: &Dataset,
    maps: Option<&IdMaps>,
    items_path: &Path,
    interactions_path: &Path,
) -> io::Result<()> {
    let (items, inter) = dataset_to_csv(dataset, maps);
    write_atomic(items_path, &items)?;
    write_atomic(interactions_path, &inter)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITEMS: &str = "item_id,price,category\n\
        espresso,2.5,coffee\n\
        latte,4.0,coffee\n\
        burger,12.0,food\n";
    const INTER: &str = "user_id,item_id,timestamp\n\
        alice,espresso,3\n\
        bob,burger,1\n\
        alice,latte,2\n";

    #[test]
    fn parses_and_indexes() {
        let (d, maps) = parse_dataset(ITEMS, INTER, 2, Quantization::Uniform).unwrap();
        assert_eq!(d.n_items, 3);
        assert_eq!(d.n_users, 2);
        assert_eq!(d.n_categories, 2);
        assert_eq!(maps.items, vec!["espresso", "latte", "burger"]);
        assert_eq!(maps.categories, vec!["coffee", "food"]);
        // Events sorted by timestamp: bob@1, alice@2, alice@3.
        assert_eq!(d.interactions[0].timestamp, 1);
        assert_eq!(d.interactions[2].timestamp, 3);
        // Quantization within category: espresso(2.5) level 0, latte(4.0)
        // level 1 (coffee range 2.5..4.0); burger alone -> level 0.
        assert_eq!(d.item_price_level, vec![0, 1, 0]);
    }

    #[test]
    fn rejects_unknown_item() {
        let bad = "user_id,item_id,timestamp\nalice,tea,1\n";
        let err = parse_dataset(ITEMS, bad, 2, Quantization::Uniform).unwrap_err();
        assert!(matches!(err, LoadError::UnknownItem { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_bad_price_and_duplicate_item() {
        let bad_price = "item_id,price,category\nx,-1.0,a\n";
        let err = parse_dataset(bad_price, "h\n", 2, Quantization::Uniform).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");

        let dup = "item_id,price,category\nx,1.0,a\nx,2.0,a\n";
        let err = parse_dataset(dup, "h\n", 2, Quantization::Uniform).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_ragged_rows_with_line_numbers() {
        let ragged = "item_id,price,category\nonlyone\n";
        let err = parse_dataset(ragged, "h\n", 2, Quantization::Uniform).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn rejects_truncated_interactions_row() {
        // A file cut off mid-row (e.g. a torn download) loses its trailing
        // fields; the error names the file and the exact line.
        let truncated = "user_id,item_id,timestamp\nalice,espresso,3\nbob,burg";
        let err = parse_dataset(ITEMS, truncated, 2, Quantization::Uniform).unwrap_err();
        assert!(matches!(err, LoadError::Parse { file: "interactions", line: 3, .. }), "{err}");
    }

    #[test]
    fn rejects_non_numeric_fields() {
        let bad_price = "item_id,price,category\nx,cheap,a\n";
        let err = parse_dataset(bad_price, "h\n", 2, Quantization::Uniform).unwrap_err();
        assert!(matches!(err, LoadError::Parse { file: "items", line: 2, .. }), "{err}");
        assert!(err.to_string().contains("bad price"), "{err}");

        let bad_ts = "user_id,item_id,timestamp\nalice,espresso,yesterday\n";
        let err = parse_dataset(ITEMS, bad_ts, 2, Quantization::Uniform).unwrap_err();
        assert!(matches!(err, LoadError::Parse { file: "interactions", line: 2, .. }), "{err}");
        assert!(err.to_string().contains("bad timestamp"), "{err}");
    }

    #[test]
    fn rejects_duplicate_interaction() {
        let dup = "user_id,item_id,timestamp\n\
            alice,espresso,3\n\
            bob,burger,1\n\
            alice,espresso,3\n";
        let err = parse_dataset(ITEMS, dup, 2, Quantization::Uniform).unwrap_err();
        match err {
            LoadError::DuplicateInteraction { line, user_id, item_id } => {
                assert_eq!(line, 4, "second occurrence is the offender");
                assert_eq!(user_id, "alice");
                assert_eq!(item_id, "espresso");
            }
            other => panic!("expected DuplicateInteraction, got {other}"),
        }
        // The same pair at a different time is a legitimate repeat purchase.
        let repeat = "user_id,item_id,timestamp\nalice,espresso,3\nalice,espresso,5\n";
        assert!(parse_dataset(ITEMS, repeat, 2, Quantization::Uniform).is_ok());
    }

    #[test]
    fn rejects_empty_dataset() {
        let err = parse_dataset(ITEMS, "user_id,item_id,timestamp\n", 2, Quantization::Uniform)
            .unwrap_err();
        assert!(matches!(err, LoadError::EmptyDataset), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        // Malformed input must always come back as a typed `LoadError`,
        // never a panic: shuffle arbitrary tokens from a hostile alphabet
        // into both CSVs and parse.
        #[test]
        fn malformed_lines_never_panic(
            picks in proptest::prop::collection::vec((0usize..12, 0usize..12, 0usize..12), 1..20),
            as_items in 0u8..2,
        ) {
            const ALPHABET: [&str; 12] = [
                "alice", "espresso", "3", "-1", "2.5e308", "nan", "",
                ",", ",,", "\u{fffd}", "price", "item_id,price,category",
            ];
            let mut csv = String::from("h\n");
            for (a, b, c) in picks {
                csv.push_str(ALPHABET[a]);
                csv.push(',');
                csv.push_str(ALPHABET[b]);
                csv.push(',');
                csv.push_str(ALPHABET[c]);
                csv.push('\n');
            }
            // Result ignored: any Ok/Err is fine, only a panic would fail.
            if as_items == 0 {
                let _ = parse_dataset(&csv, INTER, 2, Quantization::Uniform);
            } else {
                let _ = parse_dataset(ITEMS, &csv, 2, Quantization::Uniform);
            }
        }
    }

    /// Interactions as (user name, item name, timestamp) triples — the
    /// identity that survives a CSV roundtrip (dense indices are assigned by
    /// first appearance, which changes once events are written sorted).
    fn named_events(d: &Dataset, maps: &IdMaps) -> Vec<(String, String, u64)> {
        d.interactions
            .iter()
            .map(|it| {
                (
                    maps.users[it.user as usize].clone(),
                    maps.items[it.item as usize].clone(),
                    it.timestamp,
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_dataset() {
        let (d, maps) = parse_dataset(ITEMS, INTER, 2, Quantization::Uniform).unwrap();
        let (items_csv, inter_csv) = dataset_to_csv(&d, Some(&maps));
        let (d2, maps2) = parse_dataset(&items_csv, &inter_csv, 2, Quantization::Uniform).unwrap();
        assert_eq!(named_events(&d, &maps), named_events(&d2, &maps2));
        assert_eq!(d.item_price, d2.item_price);
        assert_eq!(d.item_price_level, d2.item_price_level);
        assert_eq!(maps.items, maps2.items);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pup_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let items_path = dir.join("items.csv");
        let inter_path = dir.join("interactions.csv");
        let (d, maps) = parse_dataset(ITEMS, INTER, 2, Quantization::Uniform).unwrap();
        save_dataset(&d, Some(&maps), &items_path, &inter_path).unwrap();
        let (d2, maps2) = load_dataset(&items_path, &inter_path, 2, Quantization::Uniform).unwrap();
        assert_eq!(named_events(&d, &maps), named_events(&d2, &maps2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthetic_dataset_roundtrips_through_csv() {
        let s = crate::synthetic::generate(&crate::synthetic::GeneratorConfig {
            n_users: 30,
            n_items: 40,
            n_categories: 4,
            n_price_levels: 5,
            n_interactions: 500,
            kcore: 0,
            seed: 12,
            ..Default::default()
        });
        let (items_csv, inter_csv) = dataset_to_csv(&s.dataset, None);
        let (d2, _) = parse_dataset(&items_csv, &inter_csv, 5, Quantization::Uniform).unwrap();
        assert_eq!(s.dataset.n_items, d2.n_items);
        assert_eq!(s.dataset.interactions.len(), d2.interactions.len());
        assert_eq!(s.dataset.item_price_level, d2.item_price_level);
    }
}
