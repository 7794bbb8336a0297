//! Differential test of the dataset loader and the temporal split against
//! the set-based reference they replaced (a verbatim copy lives in
//! [`reference`]): valid logs must give the same `Dataset`, `IdMaps` and
//! `Split`, and faulty ones the same typed `LoadError` on the same line.

#![allow(clippy::expect_used)]

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pup_data::io::{parse_dataset, IdMaps, LoadError};
use pup_data::split::{temporal_split, Split, SplitRatios};
use pup_data::{Dataset, Quantization};

/// The loader and split as they were before the sort-based rewrite: one
/// `HashSet` probe per event for repeats and for first pairs.
mod reference {
    use std::collections::{HashMap, HashSet};

    use pup_data::io::{IdMaps, LoadError};
    use pup_data::quantize::{quantize, Quantization};
    use pup_data::split::{Split, SplitRatios};
    use pup_data::{Dataset, Interaction};

    pub fn parse_dataset(
        items_csv: &str,
        interactions_csv: &str,
        n_price_levels: usize,
        scheme: Quantization,
    ) -> Result<(Dataset, IdMaps), LoadError> {
        let mut item_index: HashMap<String, usize> = HashMap::new();
        let mut cat_index: HashMap<String, usize> = HashMap::new();
        let mut maps = IdMaps::default();
        let mut prices: Vec<f64> = Vec::new();
        let mut categories: Vec<usize> = Vec::new();
        for (lineno, line) in items_csv.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue;
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
            if item_index.contains_key(id) {
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
            let cat_id = *cat_index.entry(cat.to_string()).or_insert_with(|| {
                maps.categories.push(cat.to_string());
                maps.categories.len() - 1
            });
            item_index.insert(id.to_string(), maps.items.len());
            maps.items.push(id.to_string());
            prices.push(price);
            categories.push(cat_id);
        }
        if maps.items.is_empty() {
            return Err(LoadError::Parse {
                file: "items",
                line: 1,
                reason: "no items found".into(),
            });
        }

        let mut user_index: HashMap<String, usize> = HashMap::new();
        let mut interactions: Vec<Interaction> = Vec::new();
        let mut seen_events: HashSet<(u32, u32, u64)> = HashSet::new();
        for (lineno, line) in interactions_csv.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue;
            }
            let mut fields = line.splitn(3, ',');
            let (user, item, ts) = match (fields.next(), fields.next(), fields.next()) {
                (Some(a), Some(b), Some(c)) => (a.trim(), b.trim(), c.trim()),
                _ => {
                    return Err(LoadError::Parse {
                        file: "interactions",
                        line: lineno + 1,
                        reason: "expected user_id,item_id,timestamp".into(),
                    })
                }
            };
            let &item_id = item_index.get(item).ok_or_else(|| LoadError::UnknownItem {
                line: lineno + 1,
                item_id: item.to_string(),
            })?;
            let ts: u64 = ts.parse().map_err(|_| LoadError::Parse {
                file: "interactions",
                line: lineno + 1,
                reason: format!("bad timestamp {ts:?}"),
            })?;
            let user_id = *user_index.entry(user.to_string()).or_insert_with(|| {
                maps.users.push(user.to_string());
                maps.users.len() - 1
            });
            if !seen_events.insert((user_id as u32, item_id as u32, ts)) {
                return Err(LoadError::DuplicateInteraction {
                    line: lineno + 1,
                    user_id: user.to_string(),
                    item_id: item.to_string(),
                });
            }
            interactions.push(Interaction {
                user: user_id as u32,
                item: item_id as u32,
                timestamp: ts,
            });
        }
        if interactions.is_empty() {
            return Err(LoadError::EmptyDataset);
        }
        interactions.sort_by_key(|it| it.timestamp);

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

    pub fn temporal_split(dataset: &Dataset, ratios: SplitRatios) -> Split {
        let n = dataset.interactions.len();
        let train_end = (n as f64 * ratios.train).floor() as usize;
        let valid_end = (n as f64 * (ratios.train + ratios.valid)).floor() as usize;

        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(n);
        let mut collect = |range: std::ops::Range<usize>| -> Vec<(usize, usize)> {
            let mut out = Vec::new();
            for it in &dataset.interactions[range] {
                if seen.insert((it.user, it.item)) {
                    out.push((it.user as usize, it.item as usize));
                }
            }
            out
        };
        let train = collect(0..train_end);
        let valid = collect(train_end..valid_end);
        let test = collect(valid_end..n);

        Split { n_users: dataset.n_users, n_items: dataset.n_items, train, valid, test }
    }
}

const LEVELS: usize = 4;
const RATIOS: [SplitRatios; 3] = [
    SplitRatios::PAPER,
    SplitRatios { train: 0.8, valid: 0.0 },
    SplitRatios { train: 0.3, valid: 0.5 },
];

/// An items CSV of `n_items` items over a few categories; some ids carry
/// padding the loader trims.
fn items_csv(n_items: usize, rng: &mut StdRng) -> String {
    let mut csv = String::from("item_id,price,category\n");
    for i in 0..n_items {
        let pad = if rng.gen_range(0..5) == 0 { " " } else { "" };
        let price = rng.gen_range(1..500) as f64 / 4.0;
        csv.push_str(&format!("{pad}item{i}{pad},{price},cat{}\n", rng.gen_range(0..4)));
    }
    csv
}

/// What a generated interactions log may contain besides plain events.
#[derive(Clone, Copy)]
struct LogShape {
    n_events: usize,
    n_users: usize,
    n_items: usize,
    /// Timestamps are drawn from `0..ts_span`; a small span makes ties.
    ts_span: u64,
    /// Percent of events that repeat an earlier (user, item) pair at a
    /// new timestamp (a repeat purchase).
    repeat_pct: u32,
    /// Percent of events that copy an earlier event outright.
    duplicate_pct: u32,
}

/// A seeded interactions CSV: ids of mixed length, padding, blank lines
/// and CRLF endings, timestamps in any order.
fn interactions_csv(shape: LogShape, rng: &mut StdRng) -> String {
    let mut csv = String::from("user_id,item_id,timestamp\n");
    let mut events: Vec<(usize, usize, u64)> = Vec::new();
    let mut seen = HashSet::new();
    for _ in 0..shape.n_events {
        let roll = rng.gen_range(0..100u32);
        let event = if !events.is_empty() && roll < shape.duplicate_pct {
            events[rng.gen_range(0..events.len())]
        } else {
            // Redraw until the event is new: only `duplicate_pct` copies.
            let repeat = !events.is_empty() && roll < shape.duplicate_pct + shape.repeat_pct;
            (0..)
                .map(|attempt| {
                    let (u, i) = if repeat && attempt < 8 {
                        let (u, i, _) = events[rng.gen_range(0..events.len())];
                        (u, i)
                    } else {
                        (rng.gen_range(0..shape.n_users), rng.gen_range(0..shape.n_items))
                    };
                    (u, i, rng.gen_range(0..shape.ts_span))
                })
                .find(|event| !seen.contains(event))
                .expect("the key space outgrows the log")
        };
        seen.insert(event);
        events.push(event);
        let (u, i, ts) = event;
        let user = if u % 3 == 0 { format!("user-{u}") } else { format!("{}", u * 7919) };
        let sep = if rng.gen_range(0..8) == 0 { " , " } else { "," };
        let end = if rng.gen_range(0..10) == 0 { "\r\n" } else { "\n" };
        csv.push_str(&format!("{user}{sep}item{i}{sep}{ts}{end}"));
        if rng.gen_range(0..25) == 0 {
            csv.push_str("  \n");
        }
    }
    csv
}

fn assert_same_dataset(got: &Dataset, want: &Dataset) {
    assert_eq!(got.n_users, want.n_users, "n_users");
    assert_eq!(got.n_items, want.n_items, "n_items");
    assert_eq!(got.n_categories, want.n_categories, "n_categories");
    assert_eq!(got.n_price_levels, want.n_price_levels, "n_price_levels");
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.item_price), bits(&want.item_price), "item_price");
    assert_eq!(got.item_category, want.item_category, "item_category");
    assert_eq!(got.item_price_level, want.item_price_level, "item_price_level");
    assert_eq!(got.interactions, want.interactions, "interactions");
}

fn assert_same_maps(got: &IdMaps, want: &IdMaps) {
    assert_eq!(got.users, want.users, "user ids");
    assert_eq!(got.items, want.items, "item ids");
    assert_eq!(got.categories, want.categories, "category ids");
}

fn assert_same_split(got: &Split, want: &Split) {
    assert_eq!((got.n_users, got.n_items), (want.n_users, want.n_items), "split sizes");
    assert_eq!(got.train, want.train, "train pairs");
    assert_eq!(got.valid, want.valid, "valid pairs");
    assert_eq!(got.test, want.test, "test pairs");
}

/// Parses with both loaders and checks they agree: the same data and
/// splits, or the same error. Returns whether the input parsed.
fn check_same(items: &str, interactions: &str) -> bool {
    let got = parse_dataset(items, interactions, LEVELS, Quantization::Uniform);
    let want = reference::parse_dataset(items, interactions, LEVELS, Quantization::Uniform);
    match (got, want) {
        (Ok((d, maps)), Ok((d_ref, maps_ref))) => {
            assert_same_dataset(&d, &d_ref);
            assert_same_maps(&maps, &maps_ref);
            for ratios in RATIOS {
                assert_same_split(
                    &temporal_split(&d, ratios),
                    &reference::temporal_split(&d_ref, ratios),
                );
            }
            true
        }
        (Err(e), Err(e_ref)) => {
            assert_eq!(format!("{e:?}"), format!("{e_ref:?}"), "different errors");
            false
        }
        (got, want) => panic!(
            "loaders disagree: new {:?}, reference {:?}",
            got.map(|_| "Ok"),
            want.map(|_| "Ok")
        ),
    }
}

#[test]
fn valid_logs_load_and_split_identically() {
    let shapes = [
        // Distinct timestamps, few repeats: the common export.
        LogShape {
            n_events: 3_000,
            n_users: 200,
            n_items: 120,
            ts_span: 1 << 40,
            repeat_pct: 10,
            duplicate_pct: 0,
        },
        // Heavy ties and repeat purchases over a tiny catalog.
        LogShape {
            n_events: 2_000,
            n_users: 15,
            n_items: 12,
            ts_span: 40,
            repeat_pct: 40,
            duplicate_pct: 0,
        },
        // Every event at one timestamp.
        LogShape {
            n_events: 500,
            n_users: 60,
            n_items: 50,
            ts_span: 1,
            repeat_pct: 0,
            duplicate_pct: 0,
        },
    ];
    let mut parsed = 0usize;
    for (k, shape) in shapes.into_iter().enumerate() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + k as u64);
            let items = items_csv(shape.n_items, &mut rng);
            let inter = interactions_csv(shape, &mut rng);
            parsed += usize::from(check_same(&items, &inter));
        }
    }
    assert_eq!(parsed, 18, "every generated log is free of duplicates");
}

#[test]
fn tiny_logs_leave_parts_empty_identically() {
    let mut rng = StdRng::seed_from_u64(9);
    let items = items_csv(6, &mut rng);
    for n_events in 1..6 {
        let shape = LogShape {
            n_events,
            n_users: 3,
            n_items: 6,
            ts_span: 1 << 20,
            repeat_pct: 30,
            duplicate_pct: 0,
        };
        let inter = interactions_csv(shape, &mut rng);
        assert!(check_same(&items, &inter), "{inter}");
    }
    // No events at all, with and without blank lines.
    check_same(&items, "user_id,item_id,timestamp\n");
    check_same(&items, "user_id,item_id,timestamp\n\n  \n");
    check_same(&items, "");
}

#[test]
fn duplicated_events_fail_identically() {
    let shape = LogShape {
        n_events: 1_500,
        n_users: 40,
        n_items: 30,
        ts_span: 200,
        repeat_pct: 20,
        duplicate_pct: 2,
    };
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let items = items_csv(shape.n_items, &mut rng);
        let inter = interactions_csv(shape, &mut rng);
        assert!(!check_same(&items, &inter), "seed {seed}: expected a duplicate event");
    }
}

/// Interactions lines `user,item,ts` after the header, one per entry.
fn log(lines: &[&str]) -> String {
    let mut csv = String::from("user_id,item_id,timestamp\n");
    for line in lines {
        csv.push_str(line);
        csv.push('\n');
    }
    csv
}

const ITEMS: &str = "item_id,price,category\na,1.0,x\nb,2.0,x\nc,3.0,y\n";

#[test]
fn a_duplicate_before_a_parse_error_wins() {
    // Line 5 repeats line 2; line 9 has a bad timestamp.
    let inter =
        log(&["u1,a,5", "u2,b,3", "u3,c,9", "u1,a,5", "u2,a,1", "u3,b,2", "u1,c,7", "u2,c,x"]);
    let err = parse_dataset(ITEMS, &inter, LEVELS, Quantization::Uniform).unwrap_err();
    assert!(matches!(err, LoadError::DuplicateInteraction { line: 5, .. }), "{err:?}");
    check_same(ITEMS, &inter);
}

#[test]
fn a_parse_error_before_a_duplicate_wins() {
    // Line 5 has a bad timestamp; line 9 repeats line 2.
    let inter =
        log(&["u1,a,5", "u2,b,3", "u3,c,9", "u1,a,x", "u2,a,1", "u3,b,2", "u1,c,7", "u1,a,5"]);
    let err = parse_dataset(ITEMS, &inter, LEVELS, Quantization::Uniform).unwrap_err();
    assert!(matches!(err, LoadError::Parse { line: 5, .. }), "{err:?}");
    check_same(ITEMS, &inter);
    // The same holds for an unknown item and a short row.
    for bad in ["u1,zz,4", "u1,a"] {
        let inter = log(&["u1,a,5", "u2,b,3", "u3,c,9", bad, "u1,a,5"]);
        check_same(ITEMS, &inter);
    }
}

#[test]
fn the_earliest_repeat_wins_across_timestamps() {
    // (u2,b,9) repeats on line 6, (u1,a,1) on line 7: line 6 is reported
    // although its timestamp sorts after the other repeat's.
    let inter = log(&["u1,a,1", "u2,b,9", "u3,c,4", "u3,a,4", "u2,b,9", "u1,a,1"]);
    let err = parse_dataset(ITEMS, &inter, LEVELS, Quantization::Uniform).unwrap_err();
    match &err {
        LoadError::DuplicateInteraction { line, user_id, item_id } => {
            assert_eq!((*line, user_id.as_str(), item_id.as_str()), (6, "u2", "b"));
        }
        other => panic!("expected DuplicateInteraction, got {other:?}"),
    }
    check_same(ITEMS, &inter);
}

/// Applies one fault to a CSV's lines: `kind` picks the fault, `at` the
/// line (or byte, for a cut) it lands on.
fn mutate(lines: &mut Vec<String>, kind: usize, at: usize) {
    let n = lines.len();
    let k = 1 + at % (n - 1).max(1);
    match kind {
        0 => lines[k] = "no commas here".to_string(),
        1 => lines[k].push('x'),
        2 => {
            let fields: Vec<&str> = lines[k].split(',').collect();
            if fields.len() == 3 {
                lines[k] = format!("{},unknown-item,{}", fields[0], fields[2]);
            }
        }
        3 => {
            // Copy an earlier event to a later line: a duplicate.
            let copy = lines[k].clone();
            let to = (k + 1 + at / 7 % n).min(lines.len());
            lines.insert(to, copy);
        }
        4 => lines.insert(k, String::new()),
        5 => {
            let fields: Vec<&str> = lines[k].split(',').collect();
            if fields.len() == 3 {
                lines[k] = format!("{},{},-{}", fields[0], fields[1], fields[2]);
            }
        }
        _ => {
            // Cut the file mid-line, as a torn download would.
            let cut = lines[k].len() / 2;
            lines[k].truncate(cut);
            lines.truncate(k + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_logs_fail_identically(
        seed in 0u64..1_000,
        faults in prop::collection::vec((0usize..7, 0usize..10_000), 1..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = LogShape {
            n_events: 60,
            n_users: 8,
            n_items: 10,
            ts_span: 30,
            repeat_pct: 25,
            duplicate_pct: 0,
        };
        let items = items_csv(shape.n_items, &mut rng);
        let inter = interactions_csv(shape, &mut rng);
        let mut lines: Vec<String> = inter.lines().map(str::to_string).collect();
        for (kind, at) in faults {
            mutate(&mut lines, kind, at);
        }
        check_same(&items, &(lines.join("\n") + "\n"));
    }

    #[test]
    fn mutated_item_files_fail_identically(
        seed in 0u64..1_000,
        faults in prop::collection::vec((0usize..7, 0usize..10_000), 1..3),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = items_csv(10, &mut rng);
        let mut lines: Vec<String> = items.lines().map(str::to_string).collect();
        for (kind, at) in faults {
            mutate(&mut lines, kind, at);
        }
        let shape = LogShape {
            n_events: 30,
            n_users: 5,
            n_items: 10,
            ts_span: 1_000,
            repeat_pct: 10,
            duplicate_pct: 0,
        };
        check_same(&(lines.join("\n") + "\n"), &interactions_csv(shape, &mut rng));
    }
}
