//! The one definition of every metric name, unit, direction and bound.
//! `BENCHMARK.json`, the child-process output, the suite report and
//! `--compare` all read these tables; a test pins the JSON file to them.

/// An end-to-end metric: what a user of the system would see.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Repeats exactly per seed (simulated quantities, counts): compared
    /// as a count, and kept out of the driver's noise check, which needs
    /// values that are never zero and never constant.
    pub exact: bool,
}

/// All lower-is-better. The five host-measured ones are `end_to_end` in
/// `BENCHMARK.json`; the three exact ones ride in its `per_layer` list.
///
/// The time bounds are the contract's maximum because the measured
/// run-to-run spread of 20 s runs of identical code on the reference box is
/// 5–13 % (README, "Noise"): a tighter bound would be narrower than the
/// noise, and every comparison against it unresolved.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "round_host_ms",
        unit: "ms",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "sim_round_s",
        unit: "s",
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "tx_bytes_per_round",
        unit: "bytes",
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        bound: 0.0,
        exact: true,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: one module's work, time or waste.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, prefixed with its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// A kernel (a public function timed directly, outside any task)
    /// rather than a measurement of the workload's traced run.
    pub kernel: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kernel: false,
    }
}

const fn kernel(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kernel: true,
    }
}

/// Every per-layer metric a traced run reports, in report order.
pub const PER_LAYER: [PerLayer; 76] = [
    // -- ipfs ---------------------------------------------------------------
    layer("ipfs.node_handle_s", "s", "lower"),
    layer("ipfs.node_handle_calls", "count", "lower"),
    layer("ipfs.provider_lookups", "count", "lower"),
    layer("ipfs.cache_hit_ratio", "share", "higher"),
    layer("ipfs.merge_rpcs", "count", "lower"),
    layer("ipfs.merge_remote_fetches", "count", "lower"),
    layer("ipfs.merge_fallbacks", "count", "lower"),
    layer("ipfs.retries", "count", "lower"),
    layer("ipfs.failovers", "count", "lower"),
    layer("ipfs.fetch_failures", "count", "lower"),
    kernel("ipfs.put_mb_s", "MB/s", "higher"),
    kernel("ipfs.get_mb_s", "MB/s", "higher"),
    kernel("ipfs.merge_mb_s", "MB/s", "higher"),
    kernel("ipfs.chunk_split_mb_s", "MB/s", "higher"),
    // -- crypto -------------------------------------------------------------
    kernel("crypto.sha256_mb_s", "MB/s", "higher"),
    kernel("crypto.key_setup_s_d8192", "s", "lower"),
    kernel("crypto.commit_ms_d8192", "ms", "lower"),
    kernel("crypto.verify_ms_d8192", "ms", "lower"),
    kernel("crypto.batch_check_ms_n16_d8192", "ms", "lower"),
    kernel("crypto.commit_us_d32", "us", "lower"),
    kernel("crypto.schnorr_sign_us", "us", "lower"),
    kernel("crypto.schnorr_verify_us", "us", "lower"),
    // -- ipls ---------------------------------------------------------------
    layer("ipls.trainer_handle_s", "s", "lower"),
    layer("ipls.trainer_handle_calls", "count", "lower"),
    layer("ipls.aggregator_handle_s", "s", "lower"),
    layer("ipls.aggregator_handle_calls", "count", "lower"),
    layer("ipls.directory_handle_s", "s", "lower"),
    layer("ipls.directory_handle_calls", "count", "lower"),
    layer("ipls.handle_max_ms", "ms", "lower"),
    layer("ipls.replay_s", "s", "lower"),
    layer("ipls.round_host_ms_hi", "ms", "lower"),
    layer("ipls.round_host_ms_hi_pct", "%", "higher"),
    layer("ipls.blobs_verified", "count", "lower"),
    layer("ipls.verification_failures", "count", "lower"),
    layer("ipls.quorum_degradations", "count", "lower"),
    layer("ipls.overlay_forwarded", "count", "lower"),
    layer("ipls.overlay_rejected", "count", "lower"),
    layer("ipls.sim_upload_s", "s", "lower"),
    layer("ipls.sim_aggregation_s", "s", "lower"),
    layer("ipls.sim_sync_s", "s", "lower"),
    layer("ipls.agg_rx_mb_per_round", "MB", "lower"),
    kernel("ipls.blob_build_mb_s", "MB/s", "higher"),
    kernel("ipls.blob_decode_mb_s", "MB/s", "higher"),
    kernel("ipls.blob_sum_mb_s", "MB/s", "higher"),
    kernel("ipls.msg_clone_mb_s", "MB/s", "higher"),
    kernel("ipls.wire_bytes_ns", "ns", "lower"),
    // -- netsim -------------------------------------------------------------
    layer("netsim.run_s", "s", "lower"),
    layer("netsim.engine_self_s", "s", "lower"),
    layer("netsim.engine_self_share", "share", "lower"),
    layer("netsim.callbacks", "count", "lower"),
    layer("netsim.engine_ns_per_callback", "ns", "lower"),
    layer("netsim.trace_events", "count", "lower"),
    layer("netsim.wasted_bytes", "bytes", "lower"),
    kernel("netsim.swarm_20k_s", "s", "lower"),
    kernel("netsim.swarm_events_per_s", "1/s", "higher"),
    kernel("netsim.waterfill_us_f1000", "us", "lower"),
    kernel("netsim.trace_record_ns", "ns", "lower"),
    // -- tokio --------------------------------------------------------------
    layer("tokio.frames_sent", "count", "lower"),
    layer("tokio.frames_per_round", "count", "lower"),
    layer("tokio.frames_lost", "count", "lower"),
    layer("tokio.reconnects", "count", "lower"),
    layer("tokio.threads_peak", "count", "lower"),
    layer("tokio.startup_ms", "ms", "lower"),
    layer("tokio.oracle_wall_s", "s", "lower"),
    layer("tokio.cpu_over_oracle", "ratio", "lower"),
    kernel("tokio.encode_mb_s", "MB/s", "higher"),
    kernel("tokio.decode_mb_s", "MB/s", "higher"),
    kernel("tokio.encode_small_ns", "ns", "lower"),
    kernel("tokio.decode_small_ns", "ns", "lower"),
    kernel("tokio.loopback_mb_s", "MB/s", "higher"),
    // -- mlcore -------------------------------------------------------------
    layer("mlcore.model_s", "s", "lower"),
    layer("mlcore.model_calls", "count", "lower"),
    kernel("mlcore.local_update_ms", "ms", "lower"),
    // -- validity of the ledger ----------------------------------------------
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.layer_sum_share", "share", "higher"),
    layer("trace.spans", "count", "lower"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any metric of either table.
pub fn unit(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (from the tables above).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// An ordered list of measurements, checked against the tables on insert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table or was already recorded: both
    /// are bugs in the benchmark, not conditions of the measured system.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            unit(name).is_some(),
            "metric {name} is not in the metric tables"
        );
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push(Metric { name, value });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound <= 0.25);
            assert!(seen.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "{} twice", m.name);
        }
        assert_eq!(PER_LAYER.iter().filter(|m| m.kernel).count(), 27);
        assert!(PER_LAYER.len() + 3 <= 128);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = end_to_end("setup_s").unwrap().bound;
        assert!(END_TO_END.iter().all(|m| m.bound <= setup));
    }

    /// `BENCHMARK.json` is written by hand; this pins it to the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                        m.get("better").and_then(Value::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .filter(|m| !m.exact)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);

        let want_layers: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name, m.unit, "lower"))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string(), None))
            .collect();
        assert_eq!(names("per_layer"), want_layers);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let want: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, want);
        for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
            assert!(w.get("why").and_then(Value::as_str).unwrap().len() <= 200);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
