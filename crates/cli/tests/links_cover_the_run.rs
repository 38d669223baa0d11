//! `BENCH_hpl.json`'s `links` belong to the run they are reported with: a
//! TCP run's link counters, which cover the run and its verification in
//! one universe, carry at least the payload bytes its phase spans
//! attribute. The TCP universe is built in this process, whatever
//! `RHPL_TRANSPORT` says, and this binary holds one test, so no other
//! transport run overwrites the counters it reads.

use hpl_blas::ElementSel;
use hpl_comm::TransportSel;
use rhpl_cli::bench::run_report;
use rhpl_cli::runner::run_one_on;
use rhpl_core::config::Schedule;
use rhpl_core::HplConfig;

#[test]
fn tcp_links_carry_every_span_byte() {
    let mut cfg = HplConfig::new(256, 32, 2, 1);
    cfg.seed = 42;
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.trace = hpl_trace::TraceOpts::on();
    let rec = run_one_on(TransportSel::Tcp, &cfg, 1, 16.0, ElementSel::F64).expect("clean run");
    assert!(rec.passed, "residual {}", rec.residual);
    let report = run_report(&rec);
    assert_eq!(report.transport, "tcp");
    let span_bytes = report.phase_totals.bytes;
    let link_bytes: u64 = report.links.iter().map(|l| l.bytes).sum();
    assert!(span_bytes > 0, "the traced 2x1 run attributed no bytes");
    assert!(
        link_bytes >= span_bytes,
        "links carried {link_bytes} B over {} frames, the spans attribute {span_bytes} B",
        report.links.iter().map(|l| l.frames).sum::<u64>()
    );
}
