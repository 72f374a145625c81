//! The open-loop scheduler: events fall due on a fixed schedule whether or
//! not the server keeps up, and every read's latency runs from its due
//! time. One thread plays generator and server: it takes up to `max_batch`
//! due reads per batch, or one update, strictly in due order, and waits
//! only when nothing is due.

/// What falls due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A read; the payload indexes the workload's requests.
    Read(usize),
    /// An update batch; the payload indexes the workload's batches.
    Update(usize),
}

#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Seconds from the start of the window.
    pub due: f64,
    /// Rate step the event belongs to.
    pub step: usize,
    pub kind: EventKind,
}

/// Steps of `step_s` seconds run back to back; step `k` issues reads at
/// `rates[k]` per second (read `i` of the step falls due `i / rate` into
/// it), and each of the first `update_steps` steps one update `update_at`
/// of the way through.
pub fn schedule(rates: &[f64], step_s: f64, update_at: f64, update_steps: usize) -> Vec<Event> {
    let mut events = Vec::new();
    let mut reads = 0;
    for (step, &rate) in rates.iter().enumerate() {
        let start = step as f64 * step_s;
        let update_due = start + update_at * step_s;
        let mut update_placed = step >= update_steps;
        for i in 0..(rate * step_s).floor() as usize {
            let due = start + i as f64 / rate;
            if !update_placed && due >= update_due {
                events.push(Event {
                    due: update_due,
                    step,
                    kind: EventKind::Update(step),
                });
                update_placed = true;
            }
            events.push(Event {
                due,
                step,
                kind: EventKind::Read(reads),
            });
            reads += 1;
        }
    }
    events
}

/// The clock and the system under test; a test substitutes a fake.
pub trait World {
    /// Seconds since the window opened.
    fn now(&self) -> f64;
    /// Return once `now() >= t`.
    fn wait_until(&mut self, t: f64);
    /// Serve these reads (payloads of [`EventKind::Read`]) as one batch.
    fn serve_reads(&mut self, reads: &[usize]);
    /// Apply update batch `update`.
    fn apply_update(&mut self, update: usize);
}

/// One rate step's outcome.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Seconds from due time to completion, per read of the step. A read
    /// never served before the window closed counts the time it had
    /// waited by then.
    pub latencies: Vec<f64>,
    /// Reads of the step not completed when the step ended.
    pub backlog_end: usize,
    /// Reads of the step completed before the step ended.
    pub completed_in_step: usize,
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    pub steps: Vec<StepReport>,
    /// When each update batch started and ended.
    pub updates: Vec<(f64, f64)>,
    /// Most events due and unserved at any batch boundary.
    pub max_queue: usize,
    /// Largest delay between an event falling due while the server was
    /// idle and the generator noticing it.
    pub generator_late_max: f64,
}

impl Report {
    /// Wall seconds of each update batch.
    pub fn update_seconds(&self) -> Vec<f64> {
        self.updates
            .iter()
            .map(|(start, end)| end - start)
            .collect()
    }
}

/// Drive `events` (sorted by due time) through `world` for `steps` steps
/// of `step_s` seconds each.
pub fn run<W: World>(
    world: &mut W,
    events: &[Event],
    steps: usize,
    step_s: f64,
    max_batch: usize,
) -> Report {
    let end = steps as f64 * step_s;
    let mut report = Report {
        steps: vec![StepReport::default(); steps],
        ..Default::default()
    };
    let mut completion: Vec<Option<f64>> = vec![None; events.len()];
    let mut next = 0;
    let mut batch = Vec::with_capacity(max_batch);
    while next < events.len() {
        let now = world.now();
        if now >= end {
            break;
        }
        let head = events[next];
        if head.due > now {
            if head.due >= end {
                break;
            }
            world.wait_until(head.due);
            report.generator_late_max = report.generator_late_max.max(world.now() - head.due);
            continue;
        }
        let due_now = events[next..].iter().take_while(|e| e.due <= now).count();
        report.max_queue = report.max_queue.max(due_now);
        match head.kind {
            EventKind::Update(update) => {
                world.apply_update(update);
                let done = world.now();
                report.updates.push((now, done));
                completion[next] = Some(done);
                next += 1;
            }
            EventKind::Read(_) => {
                batch.clear();
                let first = next;
                while next < events.len() && batch.len() < max_batch && events[next].due <= now {
                    let EventKind::Read(read) = events[next].kind else {
                        break;
                    };
                    batch.push(read);
                    next += 1;
                }
                world.serve_reads(&batch);
                let done = world.now();
                completion[first..next].fill(Some(done));
            }
        }
    }
    let closed = world.now().max(end);
    for (event, done) in events.iter().zip(completion) {
        if !matches!(event.kind, EventKind::Read(_)) {
            continue;
        }
        let step = &mut report.steps[event.step];
        let step_end = (event.step + 1) as f64 * step_s;
        match done {
            Some(done) => {
                step.latencies.push(done - event.due);
                if done <= step_end {
                    step.completed_in_step += 1;
                } else {
                    step.backlog_end += 1;
                }
            }
            None => {
                step.latencies.push(closed - event.due);
                step.backlog_end += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when waited on or when work is done, and a
    /// server with fixed costs.
    struct Fake {
        now: f64,
        read_batch_s: f64,
        update_s: f64,
        /// The clock overshoots every wait by this much.
        wake_late_s: f64,
        batches: Vec<Vec<usize>>,
        updates: Vec<(usize, f64)>,
    }

    impl Fake {
        fn new(read_batch_s: f64, update_s: f64) -> Self {
            Self {
                now: 0.0,
                read_batch_s,
                update_s,
                wake_late_s: 0.0,
                batches: Vec::new(),
                updates: Vec::new(),
            }
        }
    }

    impl World for Fake {
        fn now(&self) -> f64 {
            self.now
        }
        fn wait_until(&mut self, t: f64) {
            self.now = self.now.max(t) + self.wake_late_s;
        }
        fn serve_reads(&mut self, reads: &[usize]) {
            self.batches.push(reads.to_vec());
            self.now += self.read_batch_s;
        }
        fn apply_update(&mut self, update: usize) {
            self.updates.push((update, self.now));
            self.now += self.update_s;
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn schedule_places_reads_by_rate_and_one_update_per_step() {
        let events = schedule(&[10.0, 20.0, 5.0], 1.0, 0.25, 2);
        let reads = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Read(_)))
            .count();
        assert_eq!(reads, 35);
        let updates: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Update(_)))
            .collect();
        assert_eq!(updates.len(), 2);
        assert!(close(updates[0].due, 0.25) && close(updates[1].due, 1.25));
        assert!(
            events.windows(2).all(|w| w[0].due <= w[1].due),
            "sorted by due time"
        );
        assert!(close(events[0].due, 0.0));
        // Read 3 of step 1 is due 3/20 s into it.
        let r = events
            .iter()
            .find(|e| e.kind == EventKind::Read(13))
            .expect("read 13");
        assert!(close(r.due, 1.15) && r.step == 1);
    }

    #[test]
    fn an_idle_server_serves_each_read_alone_with_its_service_time_as_latency() {
        // 10 reads/s, 10 ms per batch: never more than one read due.
        let events: Vec<Event> = schedule(&[10.0], 1.0, 0.5, 0);
        let mut world = Fake::new(0.010, 0.0);
        let report = run(&mut world, &events, 1, 1.0, 16);
        assert_eq!(world.batches.len(), 10);
        assert!(world.batches.iter().all(|b| b.len() == 1));
        let step = &report.steps[0];
        assert_eq!(
            (
                step.latencies.len(),
                step.backlog_end,
                step.completed_in_step
            ),
            (10, 0, 10)
        );
        assert!(step.latencies.iter().all(|&l| close(l, 0.010)));
        assert_eq!(report.max_queue, 1);
        assert!(close(report.generator_late_max, 0.0));
    }

    #[test]
    fn a_stall_is_charged_to_every_read_that_fell_due_during_it() {
        // 100 reads/s for 1 s, 1 ms per batch, one 0.2 s update due at 0.5 s.
        let events = schedule(&[100.0], 1.0, 0.5, 1);
        let mut world = Fake::new(0.001, 0.2);
        let report = run(&mut world, &events, 1, 1.0, 16);
        assert_eq!(world.updates.len(), 1);
        assert!(close(world.updates[0].1, 0.5), "the update starts when due");
        assert!(close(report.update_seconds()[0], 0.2));
        let step = &report.steps[0];
        assert_eq!(step.latencies.len(), 100);
        // The read due at 0.50 queued behind the update: it waited the whole
        // stall plus its batch. Latency counts from the due time.
        let worst = step.latencies.iter().copied().fold(0.0, f64::max);
        assert!(close(worst, 0.201), "worst {worst}");
        // Reads due during the stall were taken 16 at a time afterwards.
        assert!(world.batches.iter().any(|b| b.len() == 16));
        // 20 reads fell due during the stall (0.50 … 0.69), plus the one at 0.70.
        assert_eq!(report.max_queue, 21);
        assert_eq!(
            step.backlog_end, 0,
            "the backlog drained before the step ended"
        );
        // A read before the stall saw only its own service time.
        assert!(close(step.latencies[0], 0.001));
    }

    #[test]
    fn overload_leaves_a_backlog_and_counts_unserved_reads() {
        // 100 reads/s offered, 20 ms per single-read batch would do 50/s;
        // batching lets it catch up only 4 at a time.
        let events = schedule(&[100.0, 100.0], 1.0, 0.5, 0);
        let mut world = Fake::new(0.050, 0.0);
        let report = run(&mut world, &events, 2, 1.0, 4);
        let served: usize = world.batches.iter().map(Vec::len).sum();
        assert!(served < 200, "overloaded: {served} of 200 served");
        let (a, b) = (&report.steps[0], &report.steps[1]);
        assert_eq!(
            a.latencies.len() + b.latencies.len(),
            200,
            "every read is accounted for"
        );
        assert!(a.backlog_end > 0 && b.backlog_end > 0);
        assert_eq!(a.completed_in_step + a.backlog_end, 100);
        // Unserved reads carry the wait they had accumulated at the close.
        let unserved = 200 - served;
        assert!(unserved > 0);
        assert!(b.latencies.iter().all(|&l| l > 0.0));
        assert!(report.max_queue > 4);
    }

    #[test]
    fn generator_lateness_is_the_overshoot_of_idle_waits() {
        let events = schedule(&[10.0], 1.0, 0.5, 0);
        let mut world = Fake::new(0.001, 0.0);
        world.wake_late_s = 0.003;
        let report = run(&mut world, &events, 1, 1.0, 16);
        assert!(close(report.generator_late_max, 0.003));
        // Lateness is part of what the read's user saw.
        assert!(report.steps[0].latencies[1..]
            .iter()
            .all(|&l| close(l, 0.004)));
    }
}
