//! A small deterministic discrete-event simulator: tasks with durations
//! and dependencies execute on exclusive resources (GPU queue, CPU, copy
//! engine, NIC), exactly the machine abstraction rocHPL schedules against.
//!
//! The engine knows nothing about HPL; [`crate::des_hpl`] builds the
//! benchmark's task graph on it, so overlap *emerges* from the dependency
//! edges rather than being composed by formula — including effects a
//! closed form cannot express, like contention between LBCAST and
//! row-swap traffic on a shared NIC (the paper's concern about Tan et
//! al.'s approach).

use std::collections::BinaryHeap;

use serde::Serialize;

/// Identifies a resource registered with [`Des::resource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct ResourceId(pub usize);

/// Identifies a task added with [`Des::task`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct TaskId(pub usize);

#[derive(Clone, Debug)]
struct TaskDef {
    label: String,
    resource: ResourceId,
    duration: f64,
    deps: Vec<TaskId>,
}

/// One executed task in the output trace.
#[derive(Clone, Debug, Serialize)]
pub struct TraceSpan {
    /// Task id.
    pub task: TaskId,
    /// Task label.
    pub label: String,
    /// Resource it ran on.
    pub resource: ResourceId,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

/// Result of a simulation run.
#[derive(Clone, Debug, Serialize)]
pub struct Trace {
    /// Executed spans, indexed by task id.
    pub spans: Vec<TraceSpan>,
    /// Completion time of the last task.
    pub makespan: f64,
    /// Per-resource busy time.
    pub busy: Vec<f64>,
}

impl Trace {
    /// The span of a task by id.
    pub fn span(&self, t: TaskId) -> &TraceSpan {
        &self.spans[t.0]
    }

    /// Busy fraction of a resource over the makespan.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.busy[r.0] / self.makespan
    }
}

/// The simulator: build the graph with [`Des::resource`] / [`Des::task`],
/// then [`Des::run`].
#[derive(Default)]
pub struct Des {
    resources: Vec<String>,
    tasks: Vec<TaskDef>,
}

/// Priority-queue entry: earliest event first; ties broken by task id for
/// determinism.
#[derive(PartialEq)]
struct Ev(f64, usize);

impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap; NaN-free by construction.
        other
            .0
            .partial_cmp(&self.0)
            .expect("event times are finite (asserted at insertion)")
            .then_with(|| other.1.cmp(&self.1))
    }
}

impl Des {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an exclusive resource.
    pub fn resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(name.into());
        ResourceId(self.resources.len() - 1)
    }

    /// Adds a task; `deps` must already exist (ids are creation-ordered,
    /// so cycles are unrepresentable).
    pub fn task(
        &mut self,
        resource: ResourceId,
        label: impl Into<String>,
        duration: f64,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        for d in deps {
            assert!(d.0 < id.0, "dependencies must be earlier tasks");
        }
        assert!(duration >= 0.0 && duration.is_finite(), "bad duration");
        self.tasks.push(TaskDef {
            label: label.into(),
            resource,
            duration,
            deps: deps.to_vec(),
        });
        id
    }

    /// Executes the graph: a task becomes ready when all dependencies have
    /// finished; each resource runs one task at a time, picking the ready
    /// task that became ready first (ties by task id — i.e. submission
    /// order, like a GPU stream).
    pub fn run(&self) -> Trace {
        let n = self.tasks.len();
        let mut remaining: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                dependents[d.0].push(i);
            }
        }
        // Per-resource queue of ready tasks: (ready_time, id).
        let mut queues: Vec<BinaryHeap<Ev>> = (0..self.resources.len())
            .map(|_| BinaryHeap::new())
            .collect();
        let mut free_at: Vec<f64> = vec![0.0; self.resources.len()];
        let mut completions: BinaryHeap<Ev> = BinaryHeap::new();
        let mut start = vec![f64::NAN; n];
        let mut end = vec![f64::NAN; n];
        let mut running: Vec<Option<usize>> = vec![None; self.resources.len()];

        for (i, r) in remaining.iter().enumerate() {
            if *r == 0 {
                queues[self.tasks[i].resource.0].push(Ev(0.0, i));
            }
        }
        // Kick off whatever can start at t = 0.
        let mut done = 0usize;
        let mut now = 0.0f64;
        loop {
            // Start tasks on idle resources.
            for r in 0..self.resources.len() {
                if running[r].is_none() {
                    if let Some(Ev(ready, id)) = queues[r].pop() {
                        let s = now.max(ready).max(free_at[r]);
                        start[id] = s;
                        end[id] = s + self.tasks[id].duration;
                        running[r] = Some(id);
                        completions.push(Ev(end[id], id));
                    }
                }
            }
            // Advance to the next completion.
            let Some(Ev(t, id)) = completions.pop() else {
                break;
            };
            now = t;
            let r = self.tasks[id].resource.0;
            free_at[r] = t;
            running[r] = None;
            done += 1;
            for &dep in &dependents[id] {
                remaining[dep] -= 1;
                if remaining[dep] == 0 {
                    queues[self.tasks[dep].resource.0].push(Ev(t, dep));
                }
            }
        }
        assert_eq!(done, n, "dependency graph has unreachable tasks");
        let spans: Vec<TraceSpan> = (0..n)
            .map(|i| TraceSpan {
                task: TaskId(i),
                label: self.tasks[i].label.clone(),
                resource: self.tasks[i].resource,
                start: start[i],
                end: end[i],
            })
            .collect();
        let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
        let mut busy = vec![0.0; self.resources.len()];
        for s in &spans {
            busy[s.resource.0] += s.end - s.start;
        }
        Trace {
            spans,
            makespan,
            busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain_sums_durations() {
        let mut d = Des::new();
        let cpu = d.resource("cpu");
        let a = d.task(cpu, "a", 1.0, &[]);
        let b = d.task(cpu, "b", 2.0, &[a]);
        let c = d.task(cpu, "c", 3.0, &[b]);
        let t = d.run();
        assert_eq!(t.makespan, 6.0);
        assert_eq!(t.span(c).start, 3.0);
    }

    #[test]
    fn independent_tasks_on_different_resources_overlap() {
        let mut d = Des::new();
        let r1 = d.resource("a");
        let r2 = d.resource("b");
        d.task(r1, "x", 5.0, &[]);
        d.task(r2, "y", 4.0, &[]);
        let t = d.run();
        assert_eq!(t.makespan, 5.0);
        assert!((t.utilization(r2) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn shared_resource_serializes() {
        let mut d = Des::new();
        let r = d.resource("gpu");
        d.task(r, "x", 2.0, &[]);
        d.task(r, "y", 2.0, &[]);
        let t = d.run();
        assert_eq!(t.makespan, 4.0);
        assert_eq!(t.utilization(r), 1.0);
    }

    #[test]
    fn diamond_dependency() {
        let mut d = Des::new();
        let r1 = d.resource("a");
        let r2 = d.resource("b");
        let top = d.task(r1, "top", 1.0, &[]);
        let left = d.task(r1, "left", 3.0, &[top]);
        let right = d.task(r2, "right", 5.0, &[top]);
        let bottom = d.task(r1, "bottom", 1.0, &[left, right]);
        let t = d.run();
        // bottom starts when right (the slow arm) finishes: 1 + 5 = 6.
        assert_eq!(t.span(bottom).start, 6.0);
        assert_eq!(t.makespan, 7.0);
    }

    #[test]
    fn fifo_order_on_a_resource_is_submission_order_for_equal_ready_times() {
        let mut d = Des::new();
        let r = d.resource("stream");
        let ids: Vec<TaskId> = (0..5)
            .map(|i| d.task(r, format!("k{i}"), 1.0, &[]))
            .collect();
        let t = d.run();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.span(*id).start, i as f64);
        }
    }

    #[test]
    fn zero_duration_tasks_propagate_instantly() {
        let mut d = Des::new();
        let r = d.resource("x");
        let a = d.task(r, "a", 0.0, &[]);
        let b = d.task(r, "b", 2.0, &[a]);
        let t = d.run();
        assert_eq!(t.span(b).start, 0.0);
        assert_eq!(t.makespan, 2.0);
    }

    #[test]
    fn ready_time_beats_submission_order() {
        // y is submitted later but becomes ready earlier than z.
        let mut d = Des::new();
        let slow = d.resource("slow");
        let fast = d.resource("fast");
        let gate = d.task(slow, "gate", 10.0, &[]);
        let z = d.task(fast, "z", 1.0, &[gate]);
        let y = d.task(fast, "y", 1.0, &[]);
        let t = d.run();
        assert!(t.span(y).start < t.span(z).start);
    }

    #[test]
    #[should_panic(expected = "dependencies must be earlier tasks")]
    fn forward_dependency_rejected() {
        let mut d = Des::new();
        let r = d.resource("x");
        let _ = d.task(r, "a", 1.0, &[TaskId(5)]);
    }

    #[test]
    fn determinism() {
        let build = || {
            let mut d = Des::new();
            let g = d.resource("gpu");
            let c = d.resource("cpu");
            let mut prev: Option<TaskId> = None;
            for i in 0..50 {
                let dur = 0.5 + (i % 7) as f64 * 0.1;
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let a = d.task(g, format!("g{i}"), dur, &deps);
                let b = d.task(c, format!("c{i}"), dur * 0.4, &[a]);
                prev = Some(b);
            }
            d.run()
        };
        let t1 = build();
        let t2 = build();
        assert_eq!(t1.makespan, t2.makespan);
        for (a, b) in t1.spans.iter().zip(&t2.spans) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.task, b.task);
        }
    }
}
