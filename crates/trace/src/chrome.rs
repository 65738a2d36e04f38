//! Chrome trace-event JSON export of a recorded event stream.
//!
//! The exporter consumes the per-node lanes a
//! [`RingSink`](mph_runtime::RingSink) drains — program order within a
//! lane, node order across lanes — and emits the Trace Event Format
//! `chrome://tracing` / Perfetto load directly:
//!
//! * one **process per node** (`pid` = node id);
//! * thread 0 of each process is the **driver track** (sweeps as `B`/`E`
//!   spans, barriers / recalibrations / admission decisions as
//!   instants);
//! * thread `1 + dim` is the **link track** for the port across `dim`:
//!   every transmission is split into a `port-wait` span (link queueing
//!   imposed by the port model) and an `xmit` span (wire time), so the
//!   stall structure is visible at a glance.
//!
//! The JSON is hand-assembled with `f64` `Display` formatting (shortest
//! round-trip), so the same event stream always serializes to the same
//! bytes — the workspace proptests hold exports byte-identical across
//! reruns of one seed.

use mph_runtime::TraceEvent;

/// Pushes one `"key":value` pair, comma-separating from what's there.
fn push_field(out: &mut String, key: &str, value: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
}

/// One trace event object under construction.
struct Ev {
    body: String,
}

impl Ev {
    fn new(ph: char, pid: usize, tid: usize, name: &str) -> Self {
        let mut body = String::from("{");
        push_field(&mut body, "ph", &format!("\"{ph}\""));
        push_field(&mut body, "pid", &pid.to_string());
        push_field(&mut body, "tid", &tid.to_string());
        push_field(&mut body, "name", &format!("\"{name}\""));
        Ev { body }
    }

    fn ts(mut self, ts: f64) -> Self {
        push_field(&mut self.body, "ts", &ts.to_string());
        self
    }

    fn dur(mut self, dur: f64) -> Self {
        push_field(&mut self.body, "dur", &dur.to_string());
        self
    }

    fn cat(mut self, cat: &str) -> Self {
        push_field(&mut self.body, "cat", &format!("\"{cat}\""));
        self
    }

    /// Instant scope: `"t"` thread, `"p"` process.
    fn scope(mut self, s: &str) -> Self {
        push_field(&mut self.body, "s", &format!("\"{s}\""));
        self
    }

    /// `args` as a pre-rendered `{...}` object body.
    fn args(mut self, pairs: &[(&str, String)]) -> Self {
        let mut obj = String::from("{");
        for (k, v) in pairs {
            push_field(&mut obj, k, v);
        }
        obj.push('}');
        push_field(&mut self.body, "args", &obj);
        self
    }

    fn finish(mut self, out: &mut Vec<String>) {
        self.body.push('}');
        out.push(self.body);
    }
}

fn opt_kq(kq: Option<(u32, u32)>) -> Vec<(&'static str, String)> {
    match kq {
        Some((k, q)) => vec![("k", k.to_string()), ("q", q.to_string())],
        None => Vec::new(),
    }
}

/// Renders per-node lanes (as drained from a
/// [`RingSink`](mph_runtime::RingSink)) into a complete Chrome
/// trace-event JSON document. Deterministic: the same lanes always
/// produce the same bytes.
pub fn chrome_trace_json(lanes: &[Vec<TraceEvent>]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (node, lane) in lanes.iter().enumerate() {
        // Name the process and its tracks first, so viewers label the
        // timelines even when a lane recorded only instants.
        Ev::new('M', node, 0, "process_name")
            .args(&[("name", format!("\"node {node}\""))])
            .finish(&mut events);
        Ev::new('M', node, 0, "thread_name")
            .args(&[("name", "\"driver\"".to_string())])
            .finish(&mut events);
        let mut dims: Vec<usize> = lane
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send { dim, .. }
                | TraceEvent::Recv { dim, .. }
                | TraceEvent::Relay { dim, .. } => Some(*dim),
                _ => None,
            })
            .collect();
        dims.sort_unstable();
        dims.dedup();
        for dim in dims {
            Ev::new('M', node, 1 + dim, "thread_name")
                .args(&[("name", format!("\"link dim {dim}\""))])
                .finish(&mut events);
        }

        for e in lane {
            match e {
                TraceEvent::Send {
                    dim,
                    elems,
                    job,
                    kq,
                    control,
                    epoch,
                    issued,
                    ready,
                    start,
                    end,
                } => {
                    let wait = e.port_wait();
                    if wait > 0.0 {
                        Ev::new('X', node, 1 + dim, "port-wait")
                            .cat("link")
                            .ts(issued.max(*ready))
                            .dur(wait)
                            .args(&[("job", job.to_string())])
                            .finish(&mut events);
                    }
                    let mut args = vec![
                        ("elems", elems.to_string()),
                        ("job", job.to_string()),
                        ("control", control.to_string()),
                        ("epoch", epoch.to_string()),
                        ("port_wait", wait.to_string()),
                    ];
                    args.extend(opt_kq(*kq));
                    Ev::new('X', node, 1 + dim, "xmit")
                        .cat("link")
                        .ts(*start)
                        .dur(end - start)
                        .args(&args)
                        .finish(&mut events);
                }
                TraceEvent::Recv { dim, elems, job, kq, control, stamp } => {
                    let mut args = vec![
                        ("elems", elems.to_string()),
                        ("job", job.to_string()),
                        ("control", control.to_string()),
                    ];
                    args.extend(opt_kq(*kq));
                    Ev::new('i', node, 1 + dim, "recv")
                        .cat("link")
                        .scope("t")
                        .ts(*stamp)
                        .args(&args)
                        .finish(&mut events);
                }
                TraceEvent::Barrier { epoch, time } => {
                    Ev::new('i', node, 0, "barrier")
                        .cat("sync")
                        .scope("p")
                        .ts(*time)
                        .args(&[("epoch", epoch.to_string())])
                        .finish(&mut events);
                }
                TraceEvent::SweepBegin { sweep, time } => {
                    Ev::new('B', node, 0, &format!("sweep {sweep}"))
                        .cat("driver")
                        .ts(*time)
                        .finish(&mut events);
                }
                TraceEvent::SweepEnd { sweep, time } => {
                    Ev::new('E', node, 0, &format!("sweep {sweep}"))
                        .cat("driver")
                        .ts(*time)
                        .finish(&mut events);
                }
                TraceEvent::Recalibrate { sweep, ts, tw, time } => {
                    Ev::new('i', node, 0, "recalibrate")
                        .cat("driver")
                        .scope("t")
                        .ts(*time)
                        .args(&[
                            ("sweep", sweep.to_string()),
                            ("ts", ts.to_string()),
                            ("tw", tw.to_string()),
                        ])
                        .finish(&mut events);
                }
                TraceEvent::Relay { dim, elems, time } => {
                    Ev::new('i', node, 1 + dim, "relay")
                        .cat("link")
                        .scope("t")
                        .ts(*time)
                        .args(&[("elems", elems.to_string())])
                        .finish(&mut events);
                }
                TraceEvent::Admit { job, time, queue_depth } => {
                    Ev::new('i', node, 0, "admit")
                        .cat("serve")
                        .scope("t")
                        .ts(*time)
                        .args(&[("job", job.to_string()), ("queue_depth", queue_depth.to_string())])
                        .finish(&mut events);
                }
                TraceEvent::Reject { job, time, queue_depth } => {
                    Ev::new('i', node, 0, "reject")
                        .cat("serve")
                        .scope("t")
                        .ts(*time)
                        .args(&[("job", job.to_string()), ("queue_depth", queue_depth.to_string())])
                        .finish(&mut events);
                }
                TraceEvent::Stagger { job, slots, time } => {
                    Ev::new('i', node, 0, "stagger")
                        .cat("serve")
                        .scope("t")
                        .ts(*time)
                        .args(&[("job", job.to_string()), ("slots", slots.to_string())])
                        .finish(&mut events);
                }
            }
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Well-formedness validation (for the bench gate): a minimal JSON
// parser — the workspace vendors no serde, and the gate only needs
// syntax plus the trace-event envelope, not a data model.
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            s.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                            s.push('?');
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) => {
                    s.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    /// How many digits start at the cursor, stepped over.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// JSON's number grammar:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn parse_number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                1
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => 0,
        };
        let frac = self.peek() == Some(b'.') && {
            self.pos += 1;
            self.digits() == 0
        };
        let exp = matches!(self.peek(), Some(b'e' | b'E')) && {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits() == 0
        };
        if int == 0 || frac || exp {
            return Err(self.err("bad number"));
        }
        Ok(())
    }

    fn parse_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Parses any JSON value; returns the keys when it was an object
    /// (one level — nested object keys are consumed, not returned).
    fn parse_value(&mut self) -> Result<Option<Vec<String>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object().map(Some),
            Some(b'[') => {
                self.parse_array(&mut |_| Ok(()))?;
                Ok(None)
            }
            Some(b'"') => self.parse_string().map(|_| None),
            Some(b't') => self.parse_literal("true").map(|()| None),
            Some(b'f') => self.parse_literal("false").map(|()| None),
            Some(b'n') => self.parse_literal("null").map(|()| None),
            Some(_) => self.parse_number().map(|()| None),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.parse_string()?);
            self.expect(b':')?;
            self.parse_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(keys);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parses an array, calling `on_elem` with each element's object
    /// keys (`None` for non-object elements).
    fn parse_array(
        &mut self,
        on_elem: &mut dyn FnMut(Option<Vec<String>>) -> Result<(), String>,
    ) -> Result<usize, String> {
        self.expect(b'[')?;
        let mut n = 0;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        loop {
            let keys = self.parse_value()?;
            on_elem(keys)?;
            n += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(n);
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Checks that `json` is a syntactically valid Chrome trace-event
/// document: one top-level object with a `traceEvents` array whose
/// every element is an object carrying at least `ph` and `pid`.
/// Returns the event count. This is the bench gate's well-formedness
/// oracle; it accepts any valid document, not only this crate's output.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let mut p = Parser { bytes: json.as_bytes(), pos: 0 };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err(p.err("top level must be an object"));
    }
    // Re-walk the top-level object by hand so we can intercept the
    // traceEvents key and count/validate its elements.
    p.expect(b'{')?;
    let mut count: Option<usize> = None;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Err("missing traceEvents array".to_string());
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.expect(b':')?;
        if key == "traceEvents" {
            p.skip_ws();
            if p.peek() != Some(b'[') {
                return Err(p.err("traceEvents must be an array"));
            }
            let n = p.parse_array(&mut |keys| match keys {
                Some(keys) if keys.iter().any(|k| k == "ph") && keys.iter().any(|k| k == "pid") => {
                    Ok(())
                }
                Some(_) => Err("event object missing ph/pid".to_string()),
                None => Err("traceEvents element is not an object".to_string()),
            })?;
            count = Some(n);
        } else {
            p.parse_value()?;
        }
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                break;
            }
            _ => return Err(p.err("expected ',' or '}'")),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    count.ok_or_else(|| "missing traceEvents array".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dim: usize, start: f64, end: f64) -> TraceEvent {
        TraceEvent::Send {
            dim,
            elems: 8,
            job: 1,
            kq: Some((2, 3)),
            control: false,
            epoch: 0,
            issued: start - 1.0,
            ready: 0.0,
            start,
            end,
        }
    }

    #[test]
    fn export_round_trips_through_the_validator() {
        let lanes = vec![
            vec![
                TraceEvent::SweepBegin { sweep: 0, time: 0.0 },
                send(0, 2.0, 5.0),
                TraceEvent::Recv { dim: 0, elems: 8, job: 1, kq: None, control: true, stamp: 5.0 },
                TraceEvent::Barrier { epoch: 1, time: 6.0 },
                TraceEvent::SweepEnd { sweep: 0, time: 6.0 },
                TraceEvent::Recalibrate { sweep: 1, ts: 1.0, tw: 0.25, time: 6.0 },
                TraceEvent::Relay { dim: 1, elems: 4, time: 6.5 },
                TraceEvent::Admit { job: 3, time: 7.0, queue_depth: 2 },
                TraceEvent::Reject { job: 4, time: 7.0, queue_depth: 4 },
                TraceEvent::Stagger { job: 3, slots: 2, time: 7.5 },
            ],
            vec![send(1, 1.0, 2.0)],
        ];
        let json = chrome_trace_json(&lanes);
        let n = validate_chrome_trace(&json).expect("well-formed");
        // 10 + 1 payload events, plus process/thread metadata, plus the
        // port-wait split for the first send (issued 1.0 < start 2.0).
        assert!(n > 12, "expected metadata + events, got {n}");
        assert!(json.contains("\"port-wait\""), "queued send shows its wait span");
        assert!(json.contains("\"xmit\""));
        assert!(json.contains("\"link dim 1\""));
    }

    #[test]
    fn export_is_deterministic_bytes() {
        let lanes = vec![vec![send(0, 1.0, 4.0)], vec![]];
        assert_eq!(chrome_trace_json(&lanes), chrome_trace_json(&lanes));
    }

    #[test]
    fn unqueued_sends_have_no_wait_span() {
        let lanes = vec![vec![TraceEvent::Send {
            dim: 0,
            elems: 8,
            job: 0,
            kq: None,
            control: false,
            epoch: 0,
            issued: 2.0,
            ready: 0.0,
            start: 2.0,
            end: 4.0,
        }]];
        let json = chrome_trace_json(&lanes);
        assert!(!json.contains("port-wait"));
        validate_chrome_trace(&json).expect("well-formed");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "top level must be an object");
        assert!(validate_chrome_trace("{}").is_err(), "traceEvents required");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "pid required"
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[1]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}  x").is_err(), "trailing content");
        // Numbers outside JSON's grammar, and a raw control byte in a string.
        for bad in ["+1", ".5", "1.", "01", "\"a\nb\""] {
            let doc = format!("{{\"traceEvents\":[{{\"ph\":\"i\",\"pid\":{bad}}}]}}");
            assert!(validate_chrome_trace(&doc).is_err(), "accepted {doc:?}");
        }
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
        assert_eq!(
            validate_chrome_trace(
                "{\"other\":{\"a\":[1,true,null]},\"traceEvents\":[{\"ph\":\"i\",\"pid\":0}]} "
            ),
            Ok(1)
        );
    }
}
