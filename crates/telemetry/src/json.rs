//! Minimal hand-rolled JSON encoding.
//!
//! This crate sits below the harness (which owns the full `Value`
//! parser), so the exporters carry their own encoder: deterministic, shortest-roundtrip
//! floats, the same escaping rules as the harness encoder.

use crate::event::{ArgValue, Event, EventKind};

/// Appends a JSON string literal (with quotes) to `out`.
pub(crate) fn string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite-checked float (shortest-roundtrip, `null` for
/// non-finite values, which JSON cannot represent).
pub(crate) fn float(f: f64, out: &mut String) {
    if f.is_finite() {
        out.push_str(&format!("{f}"));
    } else {
        out.push_str("null");
    }
}

/// Appends one argument value.
pub(crate) fn arg_value(v: &ArgValue, out: &mut String) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        ArgValue::F64(f) => float(*f, out),
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => string(s, out),
        ArgValue::Text(s) => string(s, out),
    }
}

/// Appends an `"args"`-style object from event arguments.
pub(crate) fn args_object(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        string(k, out);
        out.push(':');
        arg_value(v, out);
    }
    out.push('}');
}

/// Appends one event as a self-describing JSON object (the JSONL stream
/// format of [`StreamCollector`](crate::StreamCollector)).
pub(crate) fn event_object(event: &Event, out: &mut String) {
    out.push_str("{\"target\":");
    string(event.target.name(), out);
    out.push_str(",\"name\":");
    string(event.name, out);
    out.push_str(",\"host\":");
    if event.actor.host == crate::ActorId::GLOBAL_HOST {
        out.push_str("null");
    } else {
        out.push_str(&event.actor.host.to_string());
    }
    out.push_str(",\"lane\":");
    out.push_str(&event.actor.lane.to_string());
    out.push_str(",\"ts_ps\":");
    out.push_str(&event.ts_ps.to_string());
    match event.kind {
        EventKind::Span { dur_ps } => {
            out.push_str(",\"kind\":\"span\",\"dur_ps\":");
            out.push_str(&dur_ps.to_string());
        }
        EventKind::Instant => out.push_str(",\"kind\":\"instant\""),
        EventKind::Counter { value_bits } => {
            out.push_str(",\"kind\":\"counter\",\"value\":");
            float(f64::from_bits(value_bits), out);
        }
    }
    if !event.args.is_empty() {
        out.push_str(",\"args\":");
        args_object(&event.args, out);
    }
    out.push('}');
}
