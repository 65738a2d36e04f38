//! Per-(link, epoch) utilization derived from a recorded event stream.
//!
//! A link here is a directed port: (sending node, dimension). For each
//! link and barrier epoch the matrix accumulates busy virtual time
//! (Σ wire time of its transmissions), queueing wait, send count, and
//! element volume; occupancy is busy time divided by the stream's
//! makespan. Aggregations by dimension feed the README heatmap table.

use std::collections::BTreeMap;

use mph_runtime::TraceEvent;

/// Accumulated load of one (node, dim, epoch) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkLoad {
    /// Σ wire time (`end - start`) of the cell's transmissions.
    pub busy: f64,
    /// Σ port/link queueing wait before those transmissions.
    pub port_wait: f64,
    /// Transmissions charged to the cell.
    pub sends: usize,
    /// Elements carried.
    pub elems: u64,
}

/// Busy-time matrix over (node, dim, epoch), plus the stream makespan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationMatrix {
    /// Nodes in the recorded cube (lane count).
    nodes: usize,
    cells: BTreeMap<(usize, usize, usize), LinkLoad>,
    makespan: f64,
}

impl UtilizationMatrix {
    /// Builds the matrix from per-node lanes (as drained from a
    /// [`RingSink`](mph_runtime::RingSink)). The makespan is the
    /// latest virtual stamp any event carries.
    pub fn from_lanes(lanes: &[Vec<TraceEvent>]) -> Self {
        let mut cells: BTreeMap<(usize, usize, usize), LinkLoad> = BTreeMap::new();
        let mut makespan = 0.0f64;
        for (node, lane) in lanes.iter().enumerate() {
            for e in lane {
                let stamp = match e {
                    TraceEvent::Send { end, .. } => *end,
                    TraceEvent::Recv { stamp, .. } => *stamp,
                    TraceEvent::Barrier { time, .. }
                    | TraceEvent::SweepBegin { time, .. }
                    | TraceEvent::SweepEnd { time, .. }
                    | TraceEvent::Recalibrate { time, .. }
                    | TraceEvent::Relay { time, .. }
                    | TraceEvent::Admit { time, .. }
                    | TraceEvent::Reject { time, .. }
                    | TraceEvent::Stagger { time, .. } => *time,
                };
                makespan = makespan.max(stamp);
                if let TraceEvent::Send { dim, elems, epoch, start, end, .. } = e {
                    let cell = cells.entry((node, *dim, *epoch)).or_default();
                    cell.busy += end - start;
                    cell.port_wait += e.port_wait();
                    cell.sends += 1;
                    cell.elems += elems;
                }
            }
        }
        UtilizationMatrix { nodes: lanes.len(), cells, makespan }
    }

    /// Latest virtual stamp in the stream (0 for an empty one).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// All non-empty cells as `((node, dim, epoch), load)`, in
    /// deterministic key order.
    pub fn cells(&self) -> impl Iterator<Item = ((usize, usize, usize), LinkLoad)> + '_ {
        self.cells.iter().map(|(k, v)| (*k, *v))
    }

    /// Load aggregated over nodes, per (dim, epoch), in key order.
    fn by_dim_epoch(&self) -> BTreeMap<(usize, usize), LinkLoad> {
        let mut agg: BTreeMap<(usize, usize), LinkLoad> = BTreeMap::new();
        for ((_, dim, epoch), load) in self.cells() {
            let cell = agg.entry((dim, epoch)).or_default();
            cell.busy += load.busy;
            cell.port_wait += load.port_wait;
            cell.sends += load.sends;
            cell.elems += load.elems;
        }
        agg
    }

    /// A GitHub-markdown table of the (dim, epoch) aggregate: one row
    /// per dimension and epoch, occupancy averaged over the cube's
    /// `2^d` links of that dimension. Deterministic bytes.
    pub fn markdown_table(&self) -> String {
        let mut out = String::from(
            "| dim | epoch | sends | elems | busy vtime | port wait | occupancy |\n\
             |----:|------:|------:|------:|-----------:|----------:|----------:|\n",
        );
        for ((dim, epoch), load) in self.by_dim_epoch() {
            let occ = if self.makespan == 0.0 || self.nodes == 0 {
                0.0
            } else {
                load.busy / (self.nodes as f64 * self.makespan)
            };
            out.push_str(&format!(
                "| {dim} | {epoch} | {sends} | {elems} | {busy:.3} | {wait:.3} | {occ:.1}% |\n",
                sends = load.sends,
                elems = load.elems,
                busy = load.busy,
                wait = load.port_wait,
                occ = occ * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dim: usize, epoch: usize, start: f64, end: f64) -> TraceEvent {
        TraceEvent::Send {
            dim,
            elems: 10,
            job: 0,
            kq: None,
            control: false,
            epoch,
            issued: start,
            ready: 0.0,
            start,
            end,
        }
    }

    #[test]
    fn busy_time_accumulates_per_cell() {
        let lanes = vec![
            vec![send(0, 0, 0.0, 2.0), send(0, 0, 2.0, 5.0), send(1, 1, 5.0, 6.0)],
            vec![send(0, 0, 0.0, 4.0)],
        ];
        let m = UtilizationMatrix::from_lanes(&lanes);
        assert_eq!(m.makespan(), 6.0);
        let load = |cell| m.cells[&cell];
        assert_eq!(load((0, 0, 0)), LinkLoad { busy: 5.0, port_wait: 0.0, sends: 2, elems: 20 });
        assert_eq!(load((0, 1, 1)).busy, 1.0);
        assert_eq!(load((1, 0, 0)).busy, 4.0);
        assert!(!m.cells.contains_key(&(1, 1, 0)), "silent cells hold nothing");
    }

    #[test]
    fn queued_sends_report_their_wait() {
        let queued = TraceEvent::Send {
            dim: 0,
            elems: 1,
            job: 0,
            kq: None,
            control: false,
            epoch: 0,
            issued: 1.0,
            ready: 0.0,
            start: 3.0,
            end: 4.0,
        };
        let m = UtilizationMatrix::from_lanes(&[vec![queued]]);
        assert_eq!(m.cells[&(0, 0, 0)].port_wait, 2.0);
    }

    #[test]
    fn empty_streams_have_zero_makespan_and_occupancy() {
        let m = UtilizationMatrix::from_lanes(&[vec![], vec![]]);
        assert_eq!(m.makespan(), 0.0);
        assert_eq!(m.cells().count(), 0);
    }

    #[test]
    fn markdown_table_is_deterministic_and_row_per_dim_epoch() {
        let lanes = vec![vec![send(0, 0, 0.0, 2.0), send(1, 0, 2.0, 3.0), send(0, 1, 3.0, 4.0)]];
        let m = UtilizationMatrix::from_lanes(&lanes);
        let t = m.markdown_table();
        assert_eq!(t, m.markdown_table());
        assert_eq!(t.lines().count(), 2 + 3, "header + separator + three (dim, epoch) rows");
        assert!(t.contains("| 0 | 0 |"));
        assert!(t.contains("| 1 | 0 |"));
        assert!(t.contains("| 0 | 1 |"));
    }
}
