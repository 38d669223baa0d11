//! ASCII Gantt rendering of a simulated run — regenerates the *structure*
//! of the paper's Fig 3 (look-ahead) and Fig 6 (split update) timeline
//! diagrams by cutting iterations out of the executed trace.

use std::ops::Range;

use crate::des_hpl::{SimResult, RESOURCES};

/// A labelled span on one of the timeline's resource rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Resource row: one of [`RESOURCES`].
    pub row: &'static str,
    /// Task label.
    pub label: String,
    /// Start offset within the cut (seconds).
    pub start: f64,
    /// Duration within the cut (seconds).
    pub len: f64,
}

/// The spans of iterations `iters` of a run: every task that runs inside
/// their windows, clipped to them, with start offsets from the first
/// window's start.
pub fn iteration_spans(r: &SimResult, iters: Range<usize>) -> Vec<Span> {
    let t0 = r.iters[iters.start].start;
    let last = &r.iters[iters.end - 1];
    let t1 = last.start + last.time;
    r.trace
        .spans
        .iter()
        .filter(|s| s.end > t0 && s.start < t1)
        .map(|s| Span {
            row: RESOURCES[s.resource.0],
            label: s.label.clone(),
            start: s.start.max(t0) - t0,
            len: s.end.min(t1) - s.start.max(t0),
        })
        .collect()
}

/// Renders spans as a fixed-width ASCII Gantt chart.
pub fn render(spans: &[Span], width: usize) -> String {
    let end = spans.iter().map(|s| s.start + s.len).fold(0.0, f64::max);
    if end <= 0.0 {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!("iteration span: {:.3} ms\n", end * 1e3));
    for row in RESOURCES {
        let mut line = vec![b' '; width];
        let mut labels: Vec<(usize, &str)> = Vec::new();
        for s in spans.iter().filter(|s| s.row == row && s.len > 0.0) {
            let a = ((s.start / end) * width as f64) as usize;
            let b = (((s.start + s.len) / end) * width as f64).ceil() as usize;
            for c in line.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *c = b'#';
            }
            labels.push((a, &s.label));
        }
        out.push_str(&format!("{row:>5} |{}|", String::from_utf8_lossy(&line)));
        out.push_str("  ");
        labels.sort_by_key(|&(a, _)| a);
        let names: Vec<&str> = labels.iter().map(|&(_, l)| l).collect();
        out.push_str(&names.join(", "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des_hpl::simulate_des;
    use crate::node::{NodeModel, RunParams};
    use crate::schedule::{Pipeline, Simulator};

    fn spans(pipeline: Pipeline, it: usize) -> Vec<Span> {
        let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
        iteration_spans(&simulate_des(&sim, pipeline), it..it + 1)
    }

    fn find<'a>(spans: &'a [Span], label: &str) -> &'a Span {
        spans
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("no {label} span"))
    }

    fn end(s: &Span) -> f64 {
        s.start + s.len
    }

    #[test]
    fn lookahead_exposes_rs_before_update() {
        let spans = spans(Pipeline::LookAhead, 50);
        let rs = find(&spans, "rs-comm:50");
        let up = find(&spans, "update:50");
        assert!(end(rs) <= up.start, "Fig 3: RS precedes UPDATE");
        // The next panel's FACT runs concurrently with UPDATE.
        let fact = find(&spans, "fact:51");
        assert!(fact.start >= up.start && end(fact) < end(up));
    }

    #[test]
    fn split_hides_rs_under_updates() {
        let spans = spans(Pipeline::SplitUpdate, 50);
        // Fig 6: RS1 finishes under UPDATE2, the next iteration's RS2
        // prefetch runs under UPDATE1 — no communication is exposed early
        // in the run.
        let up2 = find(&spans, "up2:50");
        let rs1 = find(&spans, "rs1-comm:50");
        assert!(end(rs1) <= end(up2));
        let up1 = find(&spans, "up1:50");
        let rs2 = find(&spans, "rs2-comm:51");
        assert!(rs2.start >= up1.start && end(rs2) <= end(up1));
        // The GPU is never idle inside the window.
        let gpu: f64 = spans.iter().filter(|s| s.row == "GPU").map(|s| s.len).sum();
        assert!(
            (gpu - end(up1)).abs() < 1e-9,
            "GPU busy {gpu} of {}",
            end(up1)
        );
    }

    #[test]
    fn no_overlap_never_factors_under_an_update() {
        let spans = spans(Pipeline::NoOverlap, 50);
        let updates: Vec<&Span> = spans.iter().filter(|s| s.label.starts_with("up")).collect();
        assert!(!updates.is_empty());
        for fact in spans.iter().filter(|s| s.label.starts_with("fact:")) {
            for up in &updates {
                assert!(
                    end(fact) <= up.start || fact.start >= end(up),
                    "{} overlaps {}",
                    fact.label,
                    up.label
                );
            }
        }
        assert!(spans.iter().any(|s| s.label == "fact:50"));
    }

    #[test]
    fn render_produces_all_rows() {
        let text = render(&spans(Pipeline::SplitUpdate, 50), 80);
        for row in RESOURCES {
            assert!(text.contains(row), "missing row {row} in:\n{text}");
        }
        assert!(text.contains("up2:50"));
    }
}
