//! The multi-threaded scoring server.
//!
//! N worker threads drain one bounded [`AdmissionQueue`] and score on one
//! shared scorer per model generation: the server builds the active
//! generation once before it spawns workers, and the swap controller
//! hands later generations to every worker as an `Arc` (see
//! [`crate::swap`]). Submission is non-blocking: over-capacity traffic is
//! shed with a typed error at the call site, and every admitted job is
//! eventually answered through its reply channel, even during shutdown.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pup_obs::trace::{TraceId, TraceSpan};

use crate::deadline::Deadline;
use crate::engine::ServiceShared;
use crate::queue::{AdmissionQueue, PushRefused};
use crate::swap::{GenScorerFactory, WorkerModel};
use crate::{Request, Response, ServeError};

/// One queued unit of work. The job carries its trace with it: the root
/// `request` span opened at submission (closed by whichever worker
/// finishes the request) and the `queue` child span the worker drops the
/// moment it picks the job up — so queue time is a first-class span in
/// the stitched tree, not an annotation.
struct Job {
    req: Request,
    deadline: Deadline,
    enqueued: Instant,
    trace: TraceId,
    request_span: TraceSpan,
    queue_span: TraceSpan,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

/// The receiving end of one submitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl ResponseHandle {
    /// Blocks until the request's answer arrives. A worker vanishing
    /// without replying (a bug by contract) surfaces as
    /// [`ServeError::ChannelClosed`] instead of a hang.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ChannelClosed))
    }
}

/// A running scoring service.
pub struct Server {
    shared: Arc<ServiceShared>,
    queue: Arc<AdmissionQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the active generation's scorer once via `factory`, then
    /// starts `shared.cfg.workers` worker threads that all score on it and
    /// follow the swap controller through later generations. Fails with
    /// [`ServeError::WorkerInit`] when the scorer cannot be built.
    pub fn start_with_generations(
        shared: Arc<ServiceShared>,
        factory: GenScorerFactory,
    ) -> Result<Self, ServeError> {
        let model = WorkerModel::build(&shared, &factory).map_err(ServeError::WorkerInit)?;
        let queue = Arc::new(AdmissionQueue::<Job>::new(shared.cfg.queue_capacity));
        let n_workers = shared.cfg.workers.max(1);
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            // pup-lint: allow(clone-in-loop) — two Arc bumps per worker, at startup only.
            let mut model = model.clone();
            workers.push(std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    let Job { req, mut deadline, enqueued, trace, request_span, queue_span, reply } =
                        job;
                    // Picked up: the queue span ends here, on this thread,
                    // parented by the root opened on the submitter's.
                    drop(queue_span);
                    let wait_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    shared.stats.observe_queue_wait_ns(wait_ns);
                    let ctx = request_span.ctx();
                    let result = model.handle(&shared, req, &mut deadline, &ctx);
                    drop(request_span);
                    crate::flight::record_request(&shared, trace, wait_ns, &result, &deadline);
                    // A dropped receiver means the client stopped waiting;
                    // the work is complete either way.
                    let _ = reply.send(result);
                }
            }));
        }
        Ok(Self { shared, queue, workers })
    }

    /// The shared pipeline state (stats, breaker, faults).
    pub fn shared(&self) -> &Arc<ServiceShared> {
        &self.shared
    }

    /// Non-blocking submission: admission control happens here. Returns a
    /// handle to wait on, or a typed rejection (shed / invalid / shutdown)
    /// without ever queuing unboundedly.
    pub fn submit(&self, req: Request) -> Result<ResponseHandle, ServeError> {
        self.submit_inner(req, None, None)
    }

    /// Submission on behalf of a network connection: the request's
    /// stitched trace is parented under `parent` (the gateway's `accept`
    /// span, keeping the caller's trace id so the network hop and the
    /// engine stages land in one tree), and `deadline` carries whatever
    /// budget the request already spent being read off the wire.
    pub fn submit_traced(
        &self,
        req: Request,
        parent: &pup_obs::trace::TraceContext,
        deadline: Deadline,
    ) -> Result<ResponseHandle, ServeError> {
        self.submit_inner(req, Some(parent), Some(deadline))
    }

    fn submit_inner(
        &self,
        req: Request,
        parent: Option<&pup_obs::trace::TraceContext>,
        deadline: Option<Deadline>,
    ) -> Result<ResponseHandle, ServeError> {
        let trace = self.shared.stats.note_submitted();
        // Reject malformed user ids before they consume a queue slot.
        if self.shared.n_users != usize::MAX && req.user >= self.shared.n_users {
            self.shared.stats.note_rejected_invalid();
            return Err(ServeError::Score(pup_models::ScoreError::UserOutOfRange {
                user: req.user,
                n_users: self.shared.n_users,
            }));
        }
        let (reply, rx) = mpsc::channel();
        // The root span opens here on the submitting thread and rides the
        // queue inside the job; a shed job drops both guards, so even a
        // rejected request leaves a (queue-only) trace. A network caller
        // supplies its own parent context — then the span nests under the
        // connection's `accept` root and keeps the caller's trace id.
        let (request_span, trace) = match parent {
            Some(ctx) if ctx.is_enabled() => (ctx.span("request"), ctx.trace_id().unwrap_or(trace)),
            _ => (self.shared.root_ctx(trace).span("request"), trace),
        };
        let queue_span = request_span.ctx().span("queue");
        let job = Job {
            req,
            deadline: deadline.unwrap_or_else(|| Deadline::new(self.shared.cfg.deadline_ns)),
            enqueued: Instant::now(),
            trace,
            request_span,
            queue_span,
            reply,
        };
        match self.queue.try_push(job) {
            Ok(depth) => {
                self.shared.stats.note_admitted();
                self.shared.stats.note_queue_depth(depth);
                Ok(ResponseHandle { rx })
            }
            Err(PushRefused::Full { capacity }) => {
                self.shared.stats.note_shed();
                Err(ServeError::QueueFull { capacity })
            }
            Err(PushRefused::Closed) => Err(ServeError::Shutdown),
        }
    }

    /// Stops admitting, drains the queue, and joins every worker (what
    /// dropping the server does). Admitted requests are still answered
    /// before workers exit; then the shared scorers are released.
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // No worker reads the scorers any more: drop them, so a model does
        // not outlive the server through a still-shared `ServiceShared`.
        self.shared.swap.release_scorers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::Fallback;
    use crate::scorer::Scorer;
    use crate::{ServeConfig, Source};
    use pup_models::ScoreError;

    struct Flat {
        n_items: usize,
    }

    impl Scorer for Flat {
        fn name(&self) -> &str {
            "flat"
        }
        fn n_items(&self) -> usize {
            self.n_items
        }
        fn score(&self, _user: usize) -> Result<Vec<f64>, ScoreError> {
            Ok((0..self.n_items).map(|i| i as f64).collect())
        }
    }

    fn start_server(cfg: ServeConfig) -> Server {
        let fallback = Fallback::from_train(4, 8, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let shared = Arc::new(ServiceShared::new(cfg, fallback, 4));
        let factory: GenScorerFactory = Arc::new(|_gen| Ok(Box::new(Flat { n_items: 8 })));
        Server::start_with_generations(shared, factory).expect("server start")
    }

    #[test]
    fn serves_concurrent_requests_to_completion() {
        let server = start_server(ServeConfig { workers: 3, ..Default::default() });
        let mut handles = Vec::new();
        for user in [0usize, 1, 2, 3, 0, 1, 2, 3] {
            match server.submit(Request { user, k: 3 }) {
                Ok(h) => handles.push(h),
                Err(ServeError::QueueFull { .. }) => {} // legal under load
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        for h in handles {
            let resp = h.wait().expect("answered");
            assert_eq!(resp.source, Source::Primary);
            assert_eq!(resp.items.len(), 3);
        }
        server.shutdown();
    }

    #[test]
    fn invalid_user_rejected_at_submission() {
        let server = start_server(ServeConfig::default());
        let err = server.submit(Request { user: 99, k: 3 }).unwrap_err();
        assert!(matches!(err, ServeError::Score(ScoreError::UserOutOfRange { .. })));
        server.shutdown();
    }

    #[test]
    fn worker_init_failure_is_typed_and_clean() {
        let fallback = Fallback::from_train(2, 4, &[]).unwrap();
        let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback, 2));
        let factory: GenScorerFactory = Arc::new(|_gen| Err("no checkpoint".to_string()));
        match Server::start_with_generations(shared, factory) {
            Err(ServeError::WorkerInit(msg)) => assert!(msg.contains("no checkpoint")),
            Err(e) => panic!("expected WorkerInit, got {e}"),
            Ok(_) => panic!("expected WorkerInit, got a running server"),
        }
    }

    #[test]
    fn shutdown_answers_already_admitted_work() {
        let server = start_server(ServeConfig { workers: 1, ..Default::default() });
        let handles: Vec<_> =
            (0..4).filter_map(|u| server.submit(Request { user: u % 4, k: 2 }).ok()).collect();
        server.shutdown();
        for h in handles {
            assert!(h.wait().is_ok(), "admitted work must be answered through shutdown");
        }
    }
}
