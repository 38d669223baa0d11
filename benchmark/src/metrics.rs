//! The benchmark's metric tables — the names, units and directions that
//! `BENCHMARK.json` declares — and the result line the driver reads.

/// One declared metric.
pub struct Def {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Reported once per workload (under that workload) rather than once
    /// per benchmark run.
    pub per_workload: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound,
        per_workload: true,
    }
}

const fn up(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
        per_workload: false,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Def {
    Def {
        higher_is_better: false,
        ..up(name, unit)
    }
}

const fn per_workload(def: Def) -> Def {
    Def {
        per_workload: true,
        ..def
    }
}

/// What a user of `rhpl` sees, per workload, tracing off.
pub const END_TO_END: [Def; 4] = [
    e2e("gflops", "GFLOPS", true, 0.25),
    e2e("wall_s", "s", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.05),
];

/// The outside-in efficiency chain, one layer (crate) per prefix.
pub const PER_LAYER: [Def; 60] = [
    // Roofline denominators, taken in the same run as the blas rates.
    up("host.peak_gflops_f64", "GFLOPS"),
    up("host.peak_gflops_f32", "GFLOPS"),
    up("host.stream_triad_GBps", "GB/s"),
    up("host.nproc", "count"),
    // hpl-blas at each workload's first-iteration UPDATE shape.
    up("blas.dgemm_nb128_gflops", "GFLOPS"),
    up("blas.dgemm_nb32_gflops", "GFLOPS"),
    up("blas.dgemm_nb512_gflops", "GFLOPS"),
    up("blas.sgemm_nb128_gflops", "GFLOPS"),
    up("blas.dgemm_frac_of_peak", "ratio"),
    up("blas.dtrsm_nb128_gflops", "GFLOPS"),
    up("blas.l1_axpy_GBps", "GB/s"),
    up("blas.l1_argmax_GBps", "GB/s"),
    // hpl-threads.
    down("threads.region_ns_t2", "ns"),
    down("threads.barrier_ns_t2", "ns"),
    // hpl-comm, per transport.
    down("comm.pingpong_lat_us_inproc", "us"),
    down("comm.pingpong_lat_us_tcp", "us"),
    down("comm.pingpong_lat_us_shm", "us"),
    up("comm.pingpong_GBps_inproc", "GB/s"),
    up("comm.pingpong_GBps_tcp", "GB/s"),
    up("comm.pingpong_GBps_shm", "GB/s"),
    down("comm.allreduce_maxloc_us_p2_inproc", "us"),
    down("comm.allreduce_maxloc_us_p2_tcp", "us"),
    per_workload(down("comm.msgs", "count")),
    per_workload(down("comm.bytes", "B")),
    // rhpl-core: FACT rate vs panel height (Fig 5), UPDATE, swaps, and the
    // phases outside the iteration loop.
    up("core.fact_gflops_m3072_nb128_t1", "GFLOPS"),
    up("core.fact_gflops_m3072_nb128_t2", "GFLOPS"),
    up("core.fact_gflops_m1536_nb512_t1", "GFLOPS"),
    up("core.fact_gflops_m1536_nb512_t2", "GFLOPS"),
    up("core.fact_t2_speedup", "ratio"),
    up("core.update_gflops_nb128", "GFLOPS"),
    up("core.update_frac_of_dgemm", "ratio"),
    down("core.rowswap_us_p1", "us"),
    down("core.rowswap_us_p2", "us"),
    down("core.generate_s_n3072", "s"),
    down("core.backsolve_s_n3072", "s"),
    down("core.verify_s_n3072", "s"),
    up("core.strong_scaling_eff_2r", "ratio"),
    per_workload(up("core.e2e_frac_of_dgemm", "ratio")),
    // hpl-trace: what a span costs, and what the traced run attributes.
    down("trace.span_ns_disabled", "ns"),
    down("trace.span_ns_enabled", "ns"),
    per_workload(down("trace.overhead_frac", "ratio")),
    per_workload(up("trace.coverage", "ratio")),
    per_workload(down("core.share.fact", "ratio")),
    per_workload(down("core.share.fact_comm", "ratio")),
    per_workload(down("core.share.row_swap", "ratio")),
    per_workload(down("core.share.scatter", "ratio")),
    per_workload(up("core.share.update", "ratio")),
    per_workload(up("replay.coverage", "ratio")),
    // hpl-ckpt: one rank's N=2048 snapshot.
    up("ckpt.encode_MBps", "MB/s"),
    up("ckpt.decode_MBps", "MB/s"),
    down("ckpt.deposit_disk_ms", "ms"),
    down("ckpt.bytes", "B"),
    // hpl-mxp, from the `HPL-MxP:` lines of mxp_1x1.
    up("mxp.fact_gflops", "GFLOPS"),
    down("mxp.sweeps", "count"),
    down("mxp.refine_s", "s"),
    // Guards: layers no workload exercises.
    down("sim.des_single_node_ms", "ms"),
    down("faults.guard_ns_disabled", "ns"),
    // rhpl-cli.
    down("cli.spawn_s", "s"),
    down("cli.launch_tcp_wall_s", "s"),
    down("cli.launch_overhead_s", "s"),
];

/// Finds a metric in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Measured values by metric name, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("{name} is not a declared metric"));
        match self.0.iter_mut().find(|(n, _)| *n == d.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((d.name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Declared metrics of `table` that have no finite recorded value.
    pub fn missing(&self, table: &'static [Def]) -> Vec<&'static str> {
        table
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// The driver's result line: one JSON object with `correct`,
    /// `attempted`, `failed` and every metric of `table` with its unit. A
    /// value is printed with all the digits it was measured with.
    pub fn result_line(
        &self,
        table: &'static [Def],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25);
        }
        let setup = def("setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// tables and the workload table; the file and the code cannot drift.
    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            assert_eq!(body.matches("\"name\"").count(), table.len(), "{section}");
            for d in table {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                if section == "end_to_end" {
                    entry.push_str(&format!(", \"bound\": {}", d.bound));
                }
                entry.push('}');
                assert!(body.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        for w in &crate::workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_its_table() {
        let mut v = Values::default();
        v.set("gflops", 16.25);
        v.set("wall_s", 1.5);
        v.set("setup_s", 0.35);
        assert_eq!(v.missing(&END_TO_END), vec!["peak_rss_mb"]);
        v.set("peak_rss_mb", 80.0);
        assert!(v.missing(&END_TO_END).is_empty());
        let line = v.result_line(&END_TO_END, true, 9, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 9, \"failed\": 0, "));
        assert!(line.contains("\"gflops\": {\"value\": 16.25, \"unit\": \"GFLOPS\"}"));
        assert!(line.ends_with("\"peak_rss_mb\": {\"value\": 80, \"unit\": \"MiB\"}}}"));
        assert!(!line.contains('\n'));
    }
}
