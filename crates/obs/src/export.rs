//! Exporters over a [`TraceReport`]: a human-readable span tree with the
//! metrics registry appended, a JSONL event stream, and a collapsed-stack
//! flamegraph text (`path;sub;leaf <integer µs>` per line — the format
//! `flamegraph.pl` and speedscope ingest).

use crate::json::{write_escaped, write_num};
use crate::tracer::{SpanNode, TraceEvent, TraceEventKind, TraceReport};
use std::fmt::Write as _;

/// Schema tag stamped into the `trace_summary` header of every JSONL
/// trace artifact; `bench_check` requires it on `TRACE_*.jsonl` files.
pub const TRACE_SCHEMA: &str = "stash-trace/1";

/// Renders the aggregated span tree plus metrics as indented text.
pub fn render_tree(report: &TraceReport) -> String {
    let mut out = String::new();
    let total = report.totals.device_time_us.max(f64::MIN_POSITIVE);
    let _ = writeln!(
        out,
        "trace: {:.1} us device time, {:.1} us wait, {:.1} uJ, {} ops, {} faults",
        report.totals.device_time_us,
        report.totals.wait_time_us,
        report.totals.energy_uj,
        report.totals.total_ops(),
        report.totals.total_faults(),
    );
    render_node(&mut out, &report.root, 0, total);
    if report.dropped_events > 0 {
        let _ = writeln!(out, "({} raw events dropped by the ring buffer)", report.dropped_events);
    }
    if !report.counters.is_empty() || !report.gauges.is_empty() || !report.histograms.is_empty() {
        let _ = writeln!(out, "metrics:");
        for (name, label, v) in &report.counters {
            let _ = writeln!(out, "  counter {}{} = {}", name, fmt_label(label), v);
        }
        for (name, label, v) in &report.gauges {
            let _ = writeln!(out, "  gauge {}{} = {}", name, fmt_label(label), v);
        }
        for (name, label, h) in &report.histograms {
            let _ = writeln!(
                out,
                "  histogram {}{}: n={} mean={:.2} p50<={} p99<={}",
                name,
                fmt_label(label),
                h.total(),
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99),
            );
            for (lo, hi, c) in h.rows() {
                let _ = writeln!(out, "    [{lo}..={hi}] {c}");
            }
        }
    }
    out
}

fn fmt_label(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{{label}}}")
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize, grand_total_us: f64) {
    let total = node.total();
    let _ = writeln!(
        out,
        "{:indent$}{} x{}: total {:.1} us ({:.1}%), self {:.1} us, {:.1} uJ, ops {}{}",
        "",
        node.name,
        node.count.max(1),
        total.device_time_us,
        100.0 * total.device_time_us / grand_total_us,
        node.meter.device_time_us,
        total.energy_uj,
        total.total_ops(),
        if total.total_faults() > 0 {
            format!(", faults {}", total.total_faults())
        } else {
            String::new()
        },
        indent = depth * 2,
    );
    for c in &node.children {
        render_node(out, c, depth + 1, grand_total_us);
    }
}

/// Serializes the raw event stream as JSONL: a `trace_summary` header line
/// with the grand totals, then one object per retained event.
pub fn export_jsonl(report: &TraceReport) -> String {
    let mut out = String::new();
    let t = &report.totals;
    out.push_str("{\"schema\":\"");
    out.push_str(TRACE_SCHEMA);
    out.push_str("\",\"type\":\"trace_summary\",\"device_time_us\":");
    write_num(&mut out, t.device_time_us);
    out.push_str(",\"wait_time_us\":");
    write_num(&mut out, t.wait_time_us);
    out.push_str(",\"energy_uj\":");
    write_num(&mut out, t.energy_uj);
    let _ = writeln!(
        out,
        ",\"ops\":{},\"faults\":{},\"events\":{},\"dropped_events\":{}}}",
        t.total_ops(),
        t.total_faults(),
        report.events.len(),
        report.dropped_events,
    );
    for e in &report.events {
        write_event(&mut out, e);
        out.push('\n');
    }
    out
}

fn write_event(out: &mut String, e: &TraceEvent) {
    let _ = write!(out, "{{\"seq\":{},\"t_us\":", e.seq);
    write_num(out, e.t_us);
    out.push_str(",\"path\":");
    write_escaped(out, &e.path);
    match &e.kind {
        TraceEventKind::SpanStart { label } => {
            out.push_str(",\"type\":\"span_start\"");
            if let Some(l) = label {
                out.push_str(",\"label\":");
                write_escaped(out, l);
            }
        }
        TraceEventKind::SpanEnd => out.push_str(",\"type\":\"span_end\""),
        TraceEventKind::Op { kind, device_us, energy_uj } => {
            out.push_str(",\"type\":\"op\",\"op\":");
            write_escaped(out, &kind.to_string());
            out.push_str(",\"device_us\":");
            write_num(out, *device_us);
            out.push_str(",\"energy_uj\":");
            write_num(out, *energy_uj);
        }
        TraceEventKind::Fault { kind } => {
            out.push_str(",\"type\":\"fault\",\"fault\":");
            write_escaped(out, &kind.to_string());
        }
        TraceEventKind::Wait { wait_us } => {
            out.push_str(",\"type\":\"wait\",\"wait_us\":");
            write_num(out, *wait_us);
        }
    }
    out.push('}');
}

/// Serializes the span tree as collapsed stacks: one line per span with
/// nonzero self device time, `root;parent;leaf <integer µs>`. Feed the
/// output to any flamegraph renderer. Sub-microsecond residue rounds to
/// the nearest µs; spans whose self time rounds to 0 are omitted.
pub fn export_collapsed(report: &TraceReport) -> String {
    let mut lines = Vec::new();
    collect_collapsed(&report.root, String::new(), &mut lines);
    lines.sort();
    let mut out = String::new();
    for (path, us) in lines {
        let _ = writeln!(out, "{path} {us}");
    }
    out
}

fn collect_collapsed(node: &SpanNode, prefix: String, lines: &mut Vec<(String, u64)>) {
    let path =
        if prefix.is_empty() { node.name.clone() } else { format!("{prefix};{}", node.name) };
    let us = node.meter.device_time_us.round() as u64;
    if us > 0 {
        lines.push((path.clone(), us));
    }
    for c in &node.children {
        collect_collapsed(c, path.clone(), lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::tracer::Tracer;
    use stash_flash::{OpKind, Recorder};

    fn sample_report() -> TraceReport {
        let t = Tracer::shared();
        {
            let _e = t.span("encode_page");
            for _ in 0..3 {
                let _p = t.span("pp_step");
                t.record_op(OpKind::PartialProgram, 600.0, 60.0);
            }
            let _v = t.span("verify_read");
            t.record_op(OpKind::Read, 90.0, 50.0);
        }
        t.record_wait(50.0);
        t.observe("pp_steps_per_page", "", 3);
        t.report()
    }

    #[test]
    fn tree_render_mentions_spans_and_metrics() {
        let s = render_tree(&sample_report());
        assert!(s.contains("encode_page"));
        assert!(s.contains("pp_step x3"));
        assert!(s.contains("histogram pp_steps_per_page"));
        assert!(s.contains("counter chip_op{partial-program} = 3"));
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let out = export_jsonl(&sample_report());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() > 5);
        for line in &lines {
            let v = json::parse(line).expect("every JSONL line parses");
            assert!(v.get("type").is_some() || v.get("seq").is_some());
        }
        // Header carries the totals.
        let head = json::parse(lines[0]).unwrap();
        assert_eq!(head.get("schema").and_then(json::JsonValue::as_str), Some(TRACE_SCHEMA));
        assert_eq!(head.get("type").and_then(json::JsonValue::as_str), Some("trace_summary"));
        assert_eq!(head.get("device_time_us").and_then(json::JsonValue::as_f64), Some(1890.0));
    }

    #[test]
    fn collapsed_stacks_attribute_leaf_time() {
        let out = export_collapsed(&sample_report());
        let mut total = 0u64;
        for line in out.lines() {
            let (path, us) = line.rsplit_once(' ').unwrap();
            assert!(path.starts_with("root"));
            total += us.parse::<u64>().unwrap();
        }
        assert!(out.contains("root;encode_page;pp_step 1800"));
        assert!(out.contains("root;encode_page;verify_read 90"));
        // All device time is attributed (wait time is excluded by design).
        assert_eq!(total, 1890);
    }
}
