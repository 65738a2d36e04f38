//! Integrity gate for `results/BENCH_eigen.json`: fails loudly (non-zero
//! exit) when the tracked snapshot is unparseable or missing the fields
//! the performance history relies on — so a refactor that silently breaks
//! the snapshot writer is caught by CI instead of producing a corrupt
//! history three PRs later.
//!
//! No JSON dependency exists in this offline workspace, so a minimal
//! recursive-descent parser lives here; it accepts exactly the subset the
//! snapshot writer emits (objects, arrays, strings, numbers, booleans).

use std::process::ExitCode;

/// A parsed JSON value (subset: no null, no escapes beyond `\"`).
#[derive(Debug)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' | b'f' => self.boolean(),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&c) = self.bytes.get(self.pos) {
            if c == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8 in string"))?
                    .to_owned();
                self.pos += 1;
                return Ok(s);
            }
            if c == b'\\' {
                return Err(self.error("escape sequences are not used by the snapshot writer"));
            }
            self.pos += 1;
        }
        Err(self.error("unterminated string"))
    }

    fn boolean(&mut self) -> Result<Json, String> {
        for (lit, val) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(Json::Bool(val));
            }
        }
        Err(self.error("invalid literal"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&c) = self.bytes.get(self.pos) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("invalid number"))
    }

    fn document(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing content after the document"));
        }
        Ok(v)
    }
}

/// Validates the snapshot structure; returns the list of problems.
fn validate(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |path: &str, ok: bool| {
        if !ok {
            problems.push(format!("missing or malformed field: {path}"));
        }
    };
    require(
        "bench",
        matches!(doc.get("bench"), Some(Json::String(s)) if s == "eigen_perf_snapshot"),
    );
    // The tracked snapshot must come from a full run — smoke runs are for
    // CI logs only and never write the file.
    require("smoke", matches!(doc.get("smoke"), Some(Json::Bool(false))));
    for key in ["m", "d", "seed"] {
        require(key, doc.get(key).and_then(Json::as_number).is_some());
    }
    let layout = doc.get("layout_sweep");
    for key in ["seed_vecvec_ms", "columnblock_ms", "columnblock_cached_ms", "speedup_contiguous"] {
        require(
            &format!("layout_sweep.{key}"),
            layout.and_then(|l| l.get(key)).and_then(Json::as_number).is_some(),
        );
    }
    // The storage block: every wall-clock figure below was taken on columns
    // that start a cache line — exact fields, gated by equality.
    let storage_num =
        |key: &str| doc.get("storage").and_then(|s| s.get(key)).and_then(Json::as_number);
    require("storage.column_align_bytes == 64", storage_num("column_align_bytes") == Some(64.0));
    require("storage.misaligned_columns == 0", storage_num("misaligned_columns") == Some(0.0));
    // The kernel block: the single-node hot path on one full block sweep —
    // the three-`dot` reference, scalar (the same bits on the exact vector
    // kernels of `exact_tier`) and lanes (serial order), then the tile
    // tournament on 1, 2 and `cores` threads, each named by its worker
    // count. Wall-clock medians, so these are acceptance bars rather than a
    // two-sided band: lanes is never a loss against scalar (within 1.05x —
    // it was once gated at ≥ 1.3x faster, which measured how slowly the
    // reference bits were executed, not what reassociation buys); on a host
    // with a vector tier the exact kernels must be worth ≥ 1.25x over the
    // reference; the parked helper pool must never be a loss beyond noise
    // (two workers within 1.15x of one, whatever the core count — on one
    // core the caller just works through the round); the per-sweep
    // convergence check (`off_norm_*_ms`, same state) must stay a fraction
    // of the sweep it follows on either path — it was once as large as the
    // sweep and half of a logical solve; and the bitwise flag — tiled scalar
    // == untiled == three-`dot` reference AND tournament output invariant
    // across worker counts — must hold.
    let kernel = doc.get("kernel");
    require("kernel", kernel.is_some());
    let kernel_num = |key: &str| kernel.and_then(|k| k.get(key)).and_then(Json::as_number);
    for key in [
        "reference_ms",
        "scalar_ms",
        "lanes_ms",
        "lanes_w1_ms",
        "lanes_w2_ms",
        "lanes_wn_ms",
        "off_norm_scalar_ms",
        "off_norm_lanes_ms",
    ] {
        require(
            &format!("kernel.{key}"),
            kernel_num(key).is_some_and(|x| x.is_finite() && x > 0.0),
        );
    }
    require("kernel.cores >= 1", kernel_num("cores").is_some_and(|c| c >= 1.0));
    let exact_tier = match kernel.and_then(|k| k.get("exact_tier")) {
        Some(Json::String(tier)) if tier == "avx2" || tier == "portable" => Some(tier.as_str()),
        _ => None,
    };
    require("kernel.exact_tier", exact_tier.is_some());
    require(
        "kernel.lanes_ms <= 1.05 x scalar_ms",
        matches!(
            (kernel_num("scalar_ms"), kernel_num("lanes_ms")),
            (Some(scalar), Some(lanes)) if lanes <= 1.05 * scalar
        ),
    );
    require(
        "kernel.scalar_ms <= 0.8 x reference_ms (exact_tier not portable)",
        exact_tier == Some("portable")
            || matches!(
                (kernel_num("reference_ms"), kernel_num("scalar_ms")),
                (Some(reference), Some(scalar)) if scalar <= 0.8 * reference
            ),
    );
    require(
        "kernel.lanes_w2_ms <= 1.15 x lanes_w1_ms",
        matches!(
            (kernel_num("lanes_w1_ms"), kernel_num("lanes_w2_ms")),
            (Some(w1), Some(w2)) if w2 <= 1.15 * w1
        ),
    );
    require(
        "kernel.off_norm_lanes_ms <= 0.25 x lanes_w1_ms",
        matches!(
            (kernel_num("lanes_w1_ms"), kernel_num("off_norm_lanes_ms")),
            (Some(w1), Some(off)) if off <= 0.25 * w1
        ),
    );
    require(
        "kernel.off_norm_scalar_ms <= 0.25 x scalar_ms",
        matches!(
            (kernel_num("scalar_ms"), kernel_num("off_norm_scalar_ms")),
            (Some(scalar), Some(off)) if off <= 0.25 * scalar
        ),
    );
    require(
        "kernel.bitwise_identical",
        matches!(kernel.and_then(|k| k.get("bitwise_identical")), Some(Json::Bool(true))),
    );
    let piped = doc.get("pipelined");
    require("pipelined", piped.is_some());
    for key in [
        "unpipelined_ms",
        "pipelined_ms",
        "measured_speedup",
        "unpipelined_traffic_elems",
        "pipelined_traffic_elems",
        "unpipelined_messages",
        "pipelined_messages",
        "predicted_comm_ratio",
    ] {
        require(
            &format!("pipelined.{key}"),
            piped.and_then(|p| p.get(key)).and_then(Json::as_number).is_some(),
        );
    }
    require(
        "pipelined.q_per_phase",
        matches!(piped.and_then(|p| p.get("q_per_phase")), Some(Json::Array(a)) if !a.is_empty()),
    );
    // The throttled-fabric block: measured-vs-predicted per port model.
    // These are *virtual-clock* quantities — deterministic for a given
    // geometry — so they gate hard: the fields must exist, the prediction
    // is the schedule clock's evaluation of the executed schedule
    // (`executed_cost`), so measured/predicted must read 1.0 at the
    // printed precision, and serializing the ports must never make the
    // measured virtual time smaller (one-port ≥ all-port).
    let fabric = doc.get("fabric");
    require("fabric", fabric.is_some());
    for key in ["calibrated_channel_ts", "calibrated_channel_tw"] {
        let ok = fabric
            .and_then(|f| f.get(key))
            .and_then(Json::as_number)
            .is_some_and(|x| x.is_finite() && x > 0.0);
        require(&format!("fabric.{key}"), ok);
    }
    let port_row = |name: &str, key: &str| {
        fabric.and_then(|f| f.get(name)).and_then(|r| r.get(key)).and_then(Json::as_number)
    };
    for name in ["one_port", "all_port"] {
        require(
            &format!("fabric.{name}.q_per_phase"),
            matches!(
                fabric.and_then(|f| f.get(name)).and_then(|r| r.get("q_per_phase")),
                Some(Json::Array(a)) if !a.is_empty()
            ),
        );
        for key in ["unpipelined_vtime", "pipelined_vtime", "measured_speedup", "predicted_speedup"]
        {
            require(
                &format!("fabric.{name}.{key}"),
                port_row(name, key).is_some_and(|x| x.is_finite() && x > 0.0),
            );
        }
        require(
            &format!("fabric.{name}.measured_over_predicted == 1.0"),
            port_row(name, "measured_over_predicted") == Some(1.0),
        );
    }
    for key in ["unpipelined_vtime", "pipelined_vtime"] {
        let ordered = match (port_row("one_port", key), port_row("all_port", key)) {
            (Some(one), Some(all)) => one >= all - 1e-9,
            _ => false,
        };
        require(&format!("fabric one_port.{key} >= all_port.{key}"), ordered);
    }
    // The tail block: the packetized division/last chain, per scale
    // point, on the all-port machine. Virtual-clock quantities again, so
    // they gate hard: the chosen tail degree must actually chain
    // (tail_q ≥ 2), packetizing must not grow the tail's share of the
    // sweep price, the measured speedup must equal the schedule clock's
    // (ratio 1.0 as printed), the large-m scale point must be worth ≥ 1.05x
    // measured, and the bitwise flag — tail-on equal to tail-off — must
    // hold at every size.
    let tail = doc.get("tail");
    require("tail", tail.is_some());
    let tail_row = |name: &str, key: &str| {
        tail.and_then(|t| t.get(name)).and_then(|r| r.get(key)).and_then(Json::as_number)
    };
    for name in ["m256", "m1024"] {
        require(
            &format!("tail.{name}.tail_q >= 2"),
            tail_row(name, "tail_q").is_some_and(|q| q >= 2.0),
        );
        for key in ["tail_share_before", "tail_share_after"] {
            require(
                &format!("tail.{name}.{key}"),
                tail_row(name, key).is_some_and(|x| x.is_finite() && x > 0.0 && x < 1.0),
            );
        }
        for key in ["tail_off_vtime", "tail_on_vtime", "measured_speedup", "predicted_speedup"] {
            require(
                &format!("tail.{name}.{key}"),
                tail_row(name, key).is_some_and(|x| x.is_finite() && x > 0.0),
            );
        }
        let shrinks =
            match (tail_row(name, "tail_share_after"), tail_row(name, "tail_share_before")) {
                (Some(after), Some(before)) => after <= before + 1e-9,
                _ => false,
            };
        require(&format!("tail.{name}.tail_share_after <= tail_share_before"), shrinks);
        require(
            &format!("tail.{name}.measured_over_predicted == 1.0"),
            tail_row(name, "measured_over_predicted") == Some(1.0),
        );
        require(
            &format!("tail.{name}.bitwise_identical"),
            matches!(
                tail.and_then(|t| t.get(name)).and_then(|r| r.get("bitwise_identical")),
                Some(Json::Bool(true))
            ),
        );
    }
    require(
        "tail.m1024.measured_speedup >= 1.05",
        tail_row("m1024", "measured_speedup").is_some_and(|s| s.is_finite() && s >= 1.05),
    );

    // The batch block: N jobs multiplexed on one fabric. Virtual-clock
    // quantities again, so they gate hard: fields finite, interleaving
    // must not lose to FIFO-serial on the all-port fabric (≥ 1.0×), the
    // interleaved schedule run on the schedule clock must equal the
    // measurement under both port models (ratio 1.0 as printed), and the
    // bitwise flag — every batched job equal to its solo run — must hold.
    let batch = doc.get("batch");
    require("batch", batch.is_some());
    require(
        "batch.jobs >= 2",
        batch.and_then(|b| b.get("jobs")).and_then(Json::as_number).is_some_and(|n| n >= 2.0),
    );
    require(
        "batch.bitwise_identical",
        matches!(batch.and_then(|b| b.get("bitwise_identical")), Some(Json::Bool(true))),
    );
    let batch_row = |name: &str, key: &str| {
        batch.and_then(|b| b.get(name)).and_then(|r| r.get(key)).and_then(Json::as_number)
    };
    for name in ["one_port", "all_port"] {
        for key in [
            "fifo_vtime",
            "interleave_vtime",
            "spf_vtime",
            "predicted_interleave_vtime",
            "serial_tail_vtime",
            "jobs_per_vtime",
            "elems_per_vtime",
        ] {
            require(
                &format!("batch.{name}.{key}"),
                batch_row(name, key).is_some_and(|x| x.is_finite() && x > 0.0),
            );
        }
        require(
            &format!("batch.{name}.measured_over_predicted == 1.0"),
            batch_row(name, "measured_over_predicted") == Some(1.0),
        );
    }
    require(
        "batch.all_port.interleave_gain_vs_fifo >= 1.0",
        batch_row("all_port", "interleave_gain_vs_fifo").is_some_and(|g| g.is_finite() && g >= 1.0),
    );
    // Serializing the ports can only slow the batch down.
    for key in ["fifo_vtime", "interleave_vtime"] {
        let ordered = match (batch_row("one_port", key), batch_row("all_port", key)) {
            (Some(one), Some(all)) => one >= all - 1e-9,
            _ => false,
        };
        require(&format!("batch one_port.{key} >= all_port.{key}"), ordered);
    }

    // The degraded block: seeded impairment scenarios (static
    // heterogeneity, Gilbert–Elliott episodes, a scheduled link death)
    // solved by the adaptive driver. Virtual-clock quantities again, so
    // they gate hard: every class must finish bitwise-identical to the
    // clean run (impairments change *when* packets move, never *what*
    // they carry), adaptive must land within 1.25x of the scenario
    // oracle, impairments must never make the fabric faster than clean,
    // and the death class must actually exercise the relay — zero
    // rerouted elements there means the dead link was silently ignored.
    let degraded = doc.get("degraded");
    require("degraded", degraded.is_some());
    let dg_row = |name: &str, key: &str| {
        degraded.and_then(|g| g.get(name)).and_then(|r| r.get(key)).and_then(Json::as_number)
    };
    for name in ["hetero", "episodes", "death"] {
        for key in ["clean_vtime", "adaptive_vtime", "oracle_vtime"] {
            require(
                &format!("degraded.{name}.{key}"),
                dg_row(name, key).is_some_and(|x| x.is_finite() && x > 0.0),
            );
        }
        for key in ["recalibrations", "reroutes", "rerouted_elems"] {
            require(
                &format!("degraded.{name}.{key}"),
                dg_row(name, key).is_some_and(|x| x.is_finite() && x >= 0.0),
            );
        }
        require(
            &format!("degraded.{name}.adaptive_over_oracle <= 1.25"),
            dg_row(name, "adaptive_over_oracle")
                .is_some_and(|r| r.is_finite() && r > 0.0 && r <= 1.25),
        );
        let no_faster = match (dg_row(name, "adaptive_vtime"), dg_row(name, "clean_vtime")) {
            (Some(adaptive), Some(clean)) => adaptive >= clean - 1e-9,
            _ => false,
        };
        require(&format!("degraded.{name}.adaptive_vtime >= clean_vtime"), no_faster);
        require(
            &format!("degraded.{name}.bitwise_identical"),
            matches!(
                degraded.and_then(|g| g.get(name)).and_then(|r| r.get("bitwise_identical")),
                Some(Json::Bool(true))
            ),
        );
    }
    require(
        "degraded.death.rerouted_elems >= 1",
        dg_row("death", "rerouted_elems").is_some_and(|e| e >= 1.0),
    );

    // The serve block: open-loop arrivals served online at the
    // calibration load point (arrivals paced under one-port capacity).
    // Virtual-clock quantities, deterministic, so they gate hard: SLO
    // fields finite and positive, percentiles ordered (p50 ≤ p99), the
    // all-port fabric must serve the shared arrival sequence at least as
    // fast as the one-port fabric (jobs/vtime), and the calibration load
    // must shed nothing — a rejection here means admission or pacing
    // regressed, not that the scenario was hard.
    let serve = doc.get("serve");
    require("serve", serve.is_some());
    let serve_row = |size: &str, port: &str, key: &str| {
        serve
            .and_then(|s| s.get(size))
            .and_then(|r| r.get(port))
            .and_then(|r| r.get(key))
            .and_then(Json::as_number)
    };
    for size in ["m64", "m256"] {
        require(
            &format!("serve.{size}.mean_interarrival"),
            serve
                .and_then(|s| s.get(size))
                .and_then(|r| r.get("mean_interarrival"))
                .and_then(Json::as_number)
                .is_some_and(|x| x.is_finite() && x > 0.0),
        );
        for port in ["one_port", "all_port"] {
            for key in ["p50", "p90", "p99", "jobs_per_vtime", "elems_per_vtime", "makespan"] {
                require(
                    &format!("serve.{size}.{port}.{key}"),
                    serve_row(size, port, key).is_some_and(|x| x.is_finite() && x > 0.0),
                );
            }
            let ordered = match (serve_row(size, port, "p50"), serve_row(size, port, "p99")) {
                (Some(p50), Some(p99)) => p50 <= p99,
                _ => false,
            };
            require(&format!("serve.{size}.{port}.p50 <= p99"), ordered);
            require(
                &format!("serve.{size}.{port}.rejected == 0 at the calibration load"),
                serve_row(size, port, "rejected") == Some(0.0),
            );
            require(
                &format!("serve.{size}.{port}.served >= 1"),
                serve_row(size, port, "served").is_some_and(|s| s >= 1.0),
            );
        }
        let no_worse = match (
            serve_row(size, "all_port", "jobs_per_vtime"),
            serve_row(size, "one_port", "jobs_per_vtime"),
        ) {
            (Some(all), Some(one)) => all >= one - 1e-12,
            _ => false,
        };
        require(
            &format!("serve.{size} all_port.jobs_per_vtime >= one_port.jobs_per_vtime"),
            no_worse,
        );
    }

    // The trace block: RingSink vs NopSink on the throttled block sweep.
    // Tracing is contractually observational, so it gates hard: the
    // traced run within 5% wall time of the untraced one, results
    // bitwise-identical, at least one event recorded, and the Chrome
    // export well-formed.
    let trace = doc.get("trace");
    require("trace", trace.is_some());
    let trace_num = |key: &str| trace.and_then(|t| t.get(key)).and_then(Json::as_number);
    for key in ["nop_ms", "ring_ms"] {
        require(&format!("trace.{key}"), trace_num(key).is_some_and(|x| x.is_finite() && x > 0.0));
    }
    require(
        "trace.overhead <= 1.05",
        trace_num("overhead").is_some_and(|r| r.is_finite() && r > 0.0 && r <= 1.05),
    );
    require("trace.events >= 1", trace_num("events").is_some_and(|n| n >= 1.0));
    require(
        "trace.bitwise_identical",
        matches!(trace.and_then(|t| t.get("bitwise_identical")), Some(Json::Bool(true))),
    );
    require(
        "trace.export_well_formed",
        matches!(trace.and_then(|t| t.get("export_well_formed")), Some(Json::Bool(true))),
    );

    match doc.get("families") {
        Some(Json::Object(fams)) if !fams.is_empty() => {
            for (name, fam) in fams {
                for key in ["logical_ms", "threaded_ms", "rotations"] {
                    require(
                        &format!("families.{name}.{key}"),
                        fam.get(key).and_then(Json::as_number).is_some(),
                    );
                }
            }
        }
        _ => problems.push("missing or empty families object".into()),
    }
    problems
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "results/BENCH_eigen.json".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Parser::new(&text).document() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_check: {path} is unparseable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let problems = validate(&doc);
    if problems.is_empty() {
        println!("bench_check: {path} OK");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("bench_check: {path}: {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_size_block(rejected: f64, all_port_jobs_per_vtime: f64) -> String {
        format!(
            r#"{{"mean_interarrival": 5.0e5,
               "one_port": {{"p50": 1.0e5, "p90": 2.0e5, "p99": 3.0e5,
                            "mean_latency": 1.5e5, "max_latency": 3.0e5,
                            "queue_wait_p99": 1.0e4,
                            "jobs_per_vtime": 1.0e-5, "elems_per_vtime": 10.0,
                            "served": 8, "rejected": {rejected},
                            "peak_queue_depth": 2, "makespan": 4.0e6}},
               "all_port": {{"p50": 0.5e5, "p90": 1.0e5, "p99": 1.5e5,
                            "mean_latency": 0.7e5, "max_latency": 1.5e5,
                            "queue_wait_p99": 5.0e3,
                            "jobs_per_vtime": {all_port_jobs_per_vtime},
                            "elems_per_vtime": 20.0,
                            "served": 8, "rejected": 0,
                            "peak_queue_depth": 1, "makespan": 3.0e6}}}}"#
        )
    }

    fn minimal_snapshot_serving(
        one_port_ratio: f64,
        one_port_vtime: f64,
        batch_gain: f64,
        batch_ratio: f64,
        bitwise: bool,
        serve_rejected: f64,
        serve_all_port_jobs: f64,
    ) -> String {
        let serve_m64 = serve_size_block(serve_rejected, serve_all_port_jobs);
        let serve_m256 = serve_size_block(0.0, 2.0e-5);
        format!(
            r#"{{
          "bench": "eigen_perf_snapshot", "m": 256, "d": 3, "smoke": false, "seed": 1,
          "layout_sweep": {{"seed_vecvec_ms": 1.0, "columnblock_ms": 1.0,
                           "columnblock_cached_ms": 1.0, "speedup_contiguous": 1.0}},
          "storage": {{"column_align_bytes": 64, "misaligned_columns": 0}},
          "kernel": {{"reps": 5, "cores": 2, "exact_tier": "avx2", "reference_ms": 15.0,
                     "scalar_ms": 9.4, "lanes_ms": 7.3,
                     "lanes_w1_ms": 5.5, "lanes_w2_ms": 4.1, "lanes_wn_ms": 4.1,
                     "off_norm_scalar_ms": 0.93, "off_norm_lanes_ms": 0.45,
                     "speedup_lanes": 1.29, "bitwise_identical": true}},
          "pipelined": {{"unpipelined_ms": 1.0, "pipelined_ms": 1.0, "measured_speedup": 1.0,
                        "unpipelined_traffic_elems": 10, "pipelined_traffic_elems": 10,
                        "unpipelined_messages": 5, "pipelined_messages": 9,
                        "predicted_comm_ratio": 0.5, "q_per_phase": [4, 2, 1]}},
          "fabric": {{"family": "permuted-BR", "force_sweeps": 1,
                     "machine_ts": 1000.0, "machine_tw": 100.0,
                     "calibrated_channel_ts": 1.2e-6, "calibrated_channel_tw": 3.4e-10,
                     "one_port": {{"q_per_phase": [1, 1, 1],
                                  "unpipelined_vtime": {one_port_vtime},
                                  "pipelined_vtime": {one_port_vtime},
                                  "measured_speedup": 1.0, "predicted_speedup": 1.0,
                                  "measured_over_predicted": {one_port_ratio}}},
                     "all_port": {{"q_per_phase": [16, 2, 1],
                                  "unpipelined_vtime": 100.0, "pipelined_vtime": 70.0,
                                  "measured_speedup": 1.45, "predicted_speedup": 1.45,
                                  "measured_over_predicted": 1.0}}}},
          "tail": {{"family": "permuted-BR", "force_sweeps": 1,
                   "machine_ts": 1000.0, "machine_tw": 100.0,
                   "m256": {{"tail_q": 4, "tail_share_before": 0.42, "tail_share_after": 0.35,
                            "tail_off_vtime": 9.0e6, "tail_on_vtime": 8.2e6,
                            "measured_speedup": 1.09, "predicted_speedup": 1.09,
                            "measured_over_predicted": 1.0, "bitwise_identical": true}},
                   "m1024": {{"tail_q": 16, "tail_share_before": 0.55, "tail_share_after": 0.44,
                             "tail_off_vtime": 9.0e7, "tail_on_vtime": 6.9e7,
                             "measured_speedup": 1.30, "predicted_speedup": 1.30,
                             "measured_over_predicted": 1.0, "bitwise_identical": true}}}},
          "batch": {{"jobs": 4, "force_sweeps": 1,
                    "machine_ts": 1000.0, "machine_tw": 100.0,
                    "bitwise_identical": {bitwise},
                    "one_port": {{"fifo_vtime": 400.0, "interleave_vtime": 398.0,
                                 "spf_vtime": 400.0, "spf_mean_finish": 200.0,
                                 "fifo_mean_finish": 250.0,
                                 "interleave_gain_vs_fifo": 1.005,
                                 "predicted_interleave_vtime": 398.0,
                                 "measured_over_predicted": 1.0,
                                 "serial_tail_vtime": 40.0,
                                 "jobs_per_vtime": 1.0e-2, "elems_per_vtime": 9.0}},
                    "all_port": {{"fifo_vtime": 300.0, "interleave_vtime": 180.0,
                                 "spf_vtime": 300.0, "spf_mean_finish": 150.0,
                                 "fifo_mean_finish": 187.0,
                                 "interleave_gain_vs_fifo": {batch_gain},
                                 "predicted_interleave_vtime": 180.0,
                                 "measured_over_predicted": {batch_ratio},
                                 "serial_tail_vtime": 40.0,
                                 "jobs_per_vtime": 2.2e-2, "elems_per_vtime": 20.0}}}},
          "degraded": {{"family": "permuted-BR", "force_sweeps": 3,
                       "machine_ts": 1000.0, "machine_tw": 100.0,
                       "hetero": {{"clean_vtime": 2.17e6, "adaptive_vtime": 5.03e6,
                                  "oracle_vtime": 5.00e6, "adaptive_over_oracle": 1.006,
                                  "recalibrations": 2, "reroutes": 0, "rerouted_elems": 0,
                                  "bitwise_identical": true}},
                       "episodes": {{"clean_vtime": 2.17e6, "adaptive_vtime": 1.13e7,
                                    "oracle_vtime": 9.66e6, "adaptive_over_oracle": 1.17,
                                    "recalibrations": 2, "reroutes": 0, "rerouted_elems": 0,
                                    "bitwise_identical": true}},
                       "death": {{"clean_vtime": 2.17e6, "adaptive_vtime": 6.72e6,
                                 "oracle_vtime": 6.68e6, "adaptive_over_oracle": 1.012,
                                 "recalibrations": 2, "reroutes": 14, "rerouted_elems": 14344,
                                 "bitwise_identical": true}}}},
          "serve": {{"jobs": 8, "force_sweeps": 1,
                    "machine_ts": 1000.0, "machine_tw": 100.0,
                    "m64": {serve_m64},
                    "m256": {serve_m256}}},
          "trace": {{"reps": 11, "nop_ms": 50.0, "ring_ms": 50.8, "overhead": 1.016,
                    "events": 2832, "bitwise_identical": true,
                    "export_well_formed": true}},
          "families": {{"BR": {{"logical_ms": 1.0, "threaded_ms": 1.0, "rotations": 10}}}}
        }}"#
        )
    }

    fn minimal_snapshot_with(
        one_port_ratio: f64,
        one_port_vtime: f64,
        batch_gain: f64,
        batch_ratio: f64,
        bitwise: bool,
    ) -> String {
        minimal_snapshot_serving(
            one_port_ratio,
            one_port_vtime,
            batch_gain,
            batch_ratio,
            bitwise,
            0.0,
            2.0e-5,
        )
    }

    fn minimal_snapshot(one_port_ratio: f64, one_port_vtime: f64) -> String {
        minimal_snapshot_with(one_port_ratio, one_port_vtime, 1.66, 1.0, true)
    }

    #[test]
    fn parses_and_validates_a_minimal_snapshot() {
        let doc = Parser::new(&minimal_snapshot(1.0, 100.0)).document().expect("parses");
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }

    #[test]
    fn gates_the_one_port_measured_over_predicted_band() {
        // The prediction is the executed schedule's: any printed ratio
        // but 1.0 gates, however close.
        for bad in [0.9991, 1.0198] {
            let doc = Parser::new(&minimal_snapshot(bad, 100.0)).document().expect("parses");
            let problems = validate(&doc);
            assert!(
                problems.iter().any(|p| p.contains("measured_over_predicted")),
                "ratio {bad} should gate: {problems:?}"
            );
        }
    }

    #[test]
    fn gates_port_ordering_one_port_never_faster_than_all_port() {
        // one_port vtimes below all_port's (100/70) violate the port
        // ordering invariant.
        let doc = Parser::new(&minimal_snapshot(1.0, 50.0)).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("one_port.unpipelined_vtime >=")),
            "{problems:?}"
        );
    }

    #[test]
    fn reports_missing_pipelined_fields() {
        let text = r#"{"bench": "eigen_perf_snapshot", "m": 1, "d": 1, "seed": 1,
            "layout_sweep": {}, "families": {"BR": {}}}"#;
        let doc = Parser::new(text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("pipelined")));
        assert!(problems.iter().any(|p| p.contains("layout_sweep.seed_vecvec_ms")));
        assert!(problems.iter().any(|p| p == "missing or malformed field: fabric"));
        assert!(problems.iter().any(|p| p == "missing or malformed field: batch"));
        assert!(problems.iter().any(|p| p == "missing or malformed field: degraded"));
        assert!(problems.iter().any(|p| p == "missing or malformed field: serve"));
    }

    #[test]
    fn gates_the_degraded_adaptive_over_oracle_bar() {
        // An adaptive run more than 1.25x off the scenario oracle gates —
        // the recalibration loop stopped tracking the fabric.
        let text = minimal_snapshot(1.0, 100.0)
            .replace("\"adaptive_over_oracle\": 1.17", "\"adaptive_over_oracle\": 1.31");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("degraded.episodes.adaptive_over_oracle")),
            "{problems:?}"
        );
        // Impairments making the fabric *faster* than clean gates — the
        // scenario factors are slowdowns by construction.
        let text = minimal_snapshot(1.0, 100.0)
            .replace("\"adaptive_vtime\": 5.03e6", "\"adaptive_vtime\": 1.0e6");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("degraded.hetero.adaptive_vtime >= clean_vtime")),
            "{problems:?}"
        );
        // The happy path has no degraded problems.
        let doc = Parser::new(&minimal_snapshot(1.0, 100.0)).document().expect("parses");
        assert!(validate(&doc).iter().all(|p| !p.contains("degraded")), "{:?}", validate(&doc));
    }

    #[test]
    fn gates_the_degraded_bitwise_flag() {
        // A degraded run whose bits diverged from the clean run must never
        // pass CI — impairments change when packets move, never what they
        // carry.
        let text = minimal_snapshot(1.0, 100.0).replace(
            "\"recalibrations\": 2, \"reroutes\": 14, \"rerouted_elems\": 14344,\n                                 \"bitwise_identical\": true",
            "\"recalibrations\": 2, \"reroutes\": 14, \"rerouted_elems\": 14344,\n                                 \"bitwise_identical\": false",
        );
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("degraded.death.bitwise_identical")),
            "{problems:?}"
        );
    }

    #[test]
    fn gates_the_death_class_exercising_the_relay() {
        // The death class with zero rerouted elements means the dead link
        // was silently ignored rather than relayed around.
        let text = minimal_snapshot(1.0, 100.0).replace(
            "\"reroutes\": 14, \"rerouted_elems\": 14344",
            "\"reroutes\": 0, \"rerouted_elems\": 0",
        );
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("degraded.death.rerouted_elems >= 1")),
            "{problems:?}"
        );
    }

    #[test]
    fn gates_serve_backpressure_and_port_ordering() {
        // A shed job at the calibration load point gates — the pacing is
        // sized so the queue never fills.
        let doc = Parser::new(&minimal_snapshot_serving(1.0, 100.0, 1.5, 1.0, true, 1.0, 2.0e-5))
            .document()
            .expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("serve.m64.one_port.rejected")), "{problems:?}");
        // The all-port fabric serving the same arrivals slower than the
        // one-port fabric gates (one_port row pins 1.0e-5 jobs/vtime).
        let doc = Parser::new(&minimal_snapshot_serving(1.0, 100.0, 1.5, 1.0, true, 0.0, 0.5e-5))
            .document()
            .expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("all_port.jobs_per_vtime >=")), "{problems:?}");
        // The happy path with both knobs healthy has no serve problems.
        let doc = Parser::new(&minimal_snapshot(1.0, 100.0)).document().expect("parses");
        assert!(validate(&doc).iter().all(|p| !p.contains("serve")), "{:?}", validate(&doc));
    }

    #[test]
    fn gates_the_batch_interleave_gain_and_band() {
        // Interleaving losing to FIFO-serial on the all-port fabric gates.
        let doc = Parser::new(&minimal_snapshot_with(1.0, 100.0, 0.93, 1.0, true))
            .document()
            .expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("interleave_gain_vs_fifo")), "{problems:?}");
        // A prediction that is not the measurement gates.
        for bad in [0.9991, 1.0198] {
            let doc = Parser::new(&minimal_snapshot_with(1.0, 100.0, 1.5, bad, true))
                .document()
                .expect("parses");
            let problems = validate(&doc);
            assert!(
                problems.iter().any(|p| p.contains("batch.all_port.measured_over_predicted")),
                "ratio {bad}: {problems:?}"
            );
        }
    }

    #[test]
    fn gates_the_batch_bitwise_flag() {
        // A batch run whose results diverged from the solo runs must never
        // pass CI, whatever its throughput numbers say.
        let doc = Parser::new(&minimal_snapshot_with(1.0, 100.0, 1.5, 1.0, false))
            .document()
            .expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("bitwise_identical")), "{problems:?}");
    }

    #[test]
    fn gates_the_tail_block() {
        // A large-m tail speedup below the 1.05x acceptance bar gates.
        let text = minimal_snapshot(1.0, 100.0)
            .replace("\"measured_speedup\": 1.30", "\"measured_speedup\": 1.02");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("tail.m1024.measured_speedup >= 1.05")),
            "{problems:?}"
        );
        // A tail measurement off the schedule clock's prediction gates.
        let text = minimal_snapshot(1.0, 100.0).replace(
            "\"measured_over_predicted\": 1.0, \"bitwise_identical\": true}}",
            "\"measured_over_predicted\": 1.0198, \"bitwise_identical\": true}}",
        );
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("tail.m1024.measured_over_predicted")),
            "{problems:?}"
        );
        // A tail run that changed the reference bits must never pass.
        let text = minimal_snapshot(1.0, 100.0).replace(
            "\"measured_over_predicted\": 1.0, \"bitwise_identical\": true},",
            "\"measured_over_predicted\": 1.0, \"bitwise_identical\": false},",
        );
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("tail.m256.bitwise_identical")), "{problems:?}");
        // A tail degree that never chains (Q = 1) gates — the feature is
        // off, whatever the other numbers say.
        let text = minimal_snapshot(1.0, 100.0).replace("\"tail_q\": 16", "\"tail_q\": 1");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("tail.m1024.tail_q >= 2")), "{problems:?}");
        // Packetizing must not grow the tail's share of the sweep price.
        let text = minimal_snapshot(1.0, 100.0)
            .replace("\"tail_share_after\": 0.44", "\"tail_share_after\": 0.60");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("tail.m1024.tail_share_after <=")),
            "{problems:?}"
        );
        // A snapshot missing the block entirely gates.
        let text = r#"{"bench": "eigen_perf_snapshot", "m": 1, "d": 1, "seed": 1,
            "layout_sweep": {}, "families": {"BR": {}}}"#;
        let doc = Parser::new(text).document().expect("parses");
        assert!(validate(&doc).iter().any(|p| p == "missing or malformed field: tail"));
    }

    #[test]
    fn gates_the_kernel_speedup_bars() {
        let problems_of = |text: String| {
            let doc = Parser::new(&text).document().expect("parses");
            validate(&doc)
        };
        // A lane path slower than the scalar path beyond noise gates;
        // 1.05 × 9.4 = 9.87 is the bar.
        let lanes = |ms: &str| {
            minimal_snapshot(1.0, 100.0)
                .replace("\"lanes_ms\": 7.3", &format!("\"lanes_ms\": {ms}"))
        };
        let problems = problems_of(lanes("9.9"));
        assert!(problems.iter().any(|p| p.contains("lanes_ms <= 1.05 x")), "{problems:?}");
        assert!(problems_of(lanes("9.8")).is_empty());
        // Exact kernels worth less than 1.25x over the three-dot reference
        // gate on a host with a vector tier (0.8 × 11.7 = 9.36 < 9.4) ...
        let slow = minimal_snapshot(1.0, 100.0)
            .replace("\"reference_ms\": 15.0", "\"reference_ms\": 11.7");
        let problems = problems_of(slow.clone());
        assert!(problems.iter().any(|p| p.contains("scalar_ms <= 0.8 x")), "{problems:?}");
        // ... and not where the exact kernels are the portable loops, which
        // buy only the fused traversal.
        let portable = slow.replace("\"exact_tier\": \"avx2\"", "\"exact_tier\": \"portable\"");
        assert!(problems_of(portable).is_empty());
        // The tier and the reference timing must be on record.
        for (key, field) in [("exact_tier", "\"exact_tier\""), ("reference_ms", "\"reference_ms\"")]
        {
            let text = minimal_snapshot(1.0, 100.0).replace(field, "\"renamed\"");
            let problems = problems_of(text);
            assert!(problems.iter().any(|p| p.contains(&format!("kernel.{key}"))), "{problems:?}");
        }
        let unknown = minimal_snapshot(1.0, 100.0)
            .replace("\"exact_tier\": \"avx2\"", "\"exact_tier\": \"avx512\"");
        assert!(problems_of(unknown).iter().any(|p| p.contains("kernel.exact_tier")));
        // A non-finite timing field gates.
        let text = minimal_snapshot(1.0, 100.0).replace("\"lanes_ms\": 7.3", "\"lanes_ms\": -1.0");
        assert!(problems_of(text).iter().any(|p| p.contains("kernel.lanes_ms")));
    }

    #[test]
    fn gates_the_pool_is_never_a_loss_bar() {
        // Two workers slower than one beyond noise gates — on any core
        // count, since a one-core caller works through the round itself.
        let text =
            minimal_snapshot(1.0, 100.0).replace("\"lanes_w2_ms\": 4.1", "\"lanes_w2_ms\": 6.4");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("lanes_w2_ms <= 1.15 x")), "{problems:?}");
        // Within noise of one worker passes.
        let text =
            minimal_snapshot(1.0, 100.0).replace("\"lanes_w2_ms\": 4.1", "\"lanes_w2_ms\": 6.3");
        let doc = Parser::new(&text).document().expect("parses");
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }

    #[test]
    fn gates_the_explicit_worker_count_fields() {
        // The pool's timings are named by worker count; a snapshot that
        // still carries only the old `lanes_parallel_ms` does not pass.
        for key in ["lanes_w1_ms", "lanes_w2_ms", "lanes_wn_ms", "cores"] {
            let text = minimal_snapshot(1.0, 100.0)
                .replace(&format!("\"{key}\""), &format!("\"renamed_{key}\""));
            let doc = Parser::new(&text).document().expect("parses");
            let problems = validate(&doc);
            assert!(problems.iter().any(|p| p.contains(&format!("kernel.{key}"))), "{problems:?}");
        }
    }

    #[test]
    fn gates_the_off_norm_stays_a_fraction_of_the_sweep_bar() {
        // A convergence check above a quarter of the sweep it follows gates,
        // on either path: 0.25 × 5.5 (lanes_w1) and 0.25 × 9.4 (scalar).
        for (key, from, over, at) in [
            ("off_norm_lanes_ms", "0.45", "1.38", "1.375"),
            ("off_norm_scalar_ms", "0.93", "2.36", "2.35"),
        ] {
            let grown = |ms: &str| {
                minimal_snapshot(1.0, 100.0)
                    .replace(&format!("\"{key}\": {from}"), &format!("\"{key}\": {ms}"))
            };
            let doc = Parser::new(&grown(over)).document().expect("parses");
            let problems = validate(&doc);
            assert!(
                problems.iter().any(|p| p.contains(&format!("{key} <= 0.25 x"))),
                "{problems:?}"
            );
            // Exactly a quarter passes.
            let doc = Parser::new(&grown(at)).document().expect("parses");
            assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
        }
    }

    #[test]
    fn gates_the_off_norm_fields() {
        // Both timings of the measure must be on record, and positive.
        for key in ["off_norm_scalar_ms", "off_norm_lanes_ms"] {
            let text = minimal_snapshot(1.0, 100.0)
                .replace(&format!("\"{key}\""), &format!("\"renamed_{key}\""));
            let doc = Parser::new(&text).document().expect("parses");
            let problems = validate(&doc);
            assert!(problems.iter().any(|p| p.contains(&format!("kernel.{key}"))), "{problems:?}");
        }
        let text = minimal_snapshot(1.0, 100.0)
            .replace("\"off_norm_scalar_ms\": 0.93", "\"off_norm_scalar_ms\": 0.0");
        let doc = Parser::new(&text).document().expect("parses");
        assert!(validate(&doc).iter().any(|p| p.contains("kernel.off_norm_scalar_ms")));
    }

    #[test]
    fn gates_the_kernel_bitwise_flag() {
        // A kernel path that changed the reference bits must never pass,
        // whatever its speedup says.
        let text = minimal_snapshot(1.0, 100.0).replace(
            "\"speedup_lanes\": 1.29, \"bitwise_identical\": true",
            "\"speedup_lanes\": 1.29, \"bitwise_identical\": false",
        );
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("kernel.bitwise_identical")), "{problems:?}");
    }

    #[test]
    fn gates_the_storage_invariant_by_equality() {
        let snapshot = minimal_snapshot(1.0, 100.0);
        for (good, bad, gate) in [
            (
                "\"column_align_bytes\": 64",
                "\"column_align_bytes\": 32",
                "column_align_bytes == 64",
            ),
            ("\"misaligned_columns\": 0", "\"misaligned_columns\": 3", "misaligned_columns == 0"),
            ("\"misaligned_columns\": 0", "\"unrelated\": 0", "misaligned_columns == 0"),
        ] {
            let doc = Parser::new(&snapshot.replace(good, bad)).document().expect("parses");
            let problems = validate(&doc);
            assert!(problems.iter().any(|p| p.contains(gate)), "{bad}: {problems:?}");
        }
    }

    #[test]
    fn gates_the_trace_overhead_bar() {
        // Recording into the ring sink costing more than 5% wall time
        // gates — tracing is contractually observational.
        let text = minimal_snapshot(1.0, 100.0).replace("\"overhead\": 1.016", "\"overhead\": 1.2");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("trace.overhead <= 1.05")), "{problems:?}");
        // An empty capture gates — the sweep emits events on every fabric.
        let text = minimal_snapshot(1.0, 100.0).replace("\"events\": 2832", "\"events\": 0");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("trace.events >= 1")), "{problems:?}");
        // A snapshot missing the block entirely gates.
        let text = r#"{"bench": "eigen_perf_snapshot", "m": 1, "d": 1, "seed": 1,
            "layout_sweep": {}, "families": {"BR": {}}}"#;
        let doc = Parser::new(text).document().expect("parses");
        assert!(validate(&doc).iter().any(|p| p == "missing or malformed field: trace"));
    }

    #[test]
    fn gates_the_trace_bitwise_flag() {
        // A traced run whose bits diverged from the untraced run must
        // never pass CI — observation must not perturb the system.
        let text = minimal_snapshot(1.0, 100.0).replace(
            "\"events\": 2832, \"bitwise_identical\": true",
            "\"events\": 2832, \"bitwise_identical\": false",
        );
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("trace.bitwise_identical")), "{problems:?}");
    }

    #[test]
    fn gates_the_trace_export_well_formedness() {
        // A Chrome export the validator rejects gates — a capture nobody
        // can open is not observability.
        let text = minimal_snapshot(1.0, 100.0)
            .replace("\"export_well_formed\": true", "\"export_well_formed\": false");
        let doc = Parser::new(&text).document().expect("parses");
        let problems = validate(&doc);
        assert!(problems.iter().any(|p| p.contains("trace.export_well_formed")), "{problems:?}");
        // The happy path has no trace problems.
        let doc = Parser::new(&minimal_snapshot(1.0, 100.0)).document().expect("parses");
        assert!(validate(&doc).iter().all(|p| !p.contains("trace")), "{:?}", validate(&doc));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\": }", "[1, 2", "{\"a\": 1} trailing", ""] {
            assert!(Parser::new(bad).document().is_err(), "{bad:?} should not parse");
        }
    }
}
