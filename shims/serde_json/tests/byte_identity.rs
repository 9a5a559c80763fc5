//! Byte-identity tests for the JSON text the shim emits. Every report,
//! sidecar and wire frame in the workspace is compared byte for byte,
//! so each test pins the exact text, not just a round trip: a fast path
//! in the writer or the parser may not change a single byte.

use serde::{Deserialize, Serialize};

fn text<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn back<T: Deserialize>(text: &str) -> T {
    serde_json::from_str(text).expect("parses")
}

#[test]
fn plain_ascii_strings_are_copied_verbatim() {
    for s in [
        "",
        "a",
        "hello world",
        "model_guided",
        "serve.reject.queue_full",
    ] {
        assert_eq!(text(&s.to_owned()), format!("\"{s}\""));
        assert_eq!(back::<String>(&format!("\"{s}\"")), s);
    }
    // DEL and the printable ASCII edge are not escaped.
    assert_eq!(text(&"~\u{7f} /".to_owned()), "\"~\u{7f} /\"");
}

#[test]
fn escapable_bytes_are_escaped() {
    let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{0}".to_owned();
    let json = r#""a\"b\\c\nd\re\tf\u0001g\u001fh\u0000""#;
    assert_eq!(text(&s), json);
    assert_eq!(back::<String>(json), s);
    // Escapes at the very start and end, and back to back.
    let s = "\"\\\n".to_owned();
    let json = r#""\"\\\n""#;
    assert_eq!(text(&s), json);
    assert_eq!(back::<String>(json), s);
}

#[test]
fn multibyte_utf8_passes_through_unescaped() {
    let s = "üñî → 日本語 🚀".to_owned();
    assert_eq!(text(&s), "\"üñî → 日本語 🚀\"");
    assert_eq!(back::<String>("\"üñî → 日本語 🚀\""), s);
    // Escapes between multibyte characters split the runs at character
    // boundaries.
    let s = "ü\"é\\日\n🚀\u{2}".to_owned();
    let json = "\"ü\\\"é\\\\日\\n🚀\\u0002\"";
    assert_eq!(text(&s), json);
    assert_eq!(back::<String>(json), s);
}

#[test]
fn an_escape_after_a_long_plain_run_takes_the_slow_path() {
    let run = "x".repeat(4096);
    let s = format!("{run}\"tail\u{7}");
    let json = format!("\"{run}\\\"tail\\u0007\"");
    assert_eq!(text(&s), json);
    assert_eq!(back::<String>(&json), s);
    // The parser's slow path: plain run, escapes of every kind, and a
    // plain run again after them.
    let json = format!("\"{run}\\/\\b\\f\\u00e9\\ud83d\\ude80{run}\"");
    assert_eq!(back::<String>(&json), format!("{run}/\u{8}\u{c}é🚀{run}"));
}

#[test]
fn strings_keep_their_bytes_as_object_keys() {
    let pairs = vec![("k\"ey".to_owned(), 1u64), ("日".to_owned(), 2)];
    let json = r#"[["k\"ey",1],["日",2]]"#;
    assert_eq!(text(&pairs), json);
    assert_eq!(back::<Vec<(String, u64)>>(json), pairs);
}

#[test]
fn integer_extremes_print_exactly() {
    assert_eq!(text(&u64::MAX), "18446744073709551615");
    assert_eq!(text(&0u64), "0");
    assert_eq!(text(&i64::MIN), "-9223372036854775808");
    assert_eq!(text(&0i64), "0");
    assert_eq!(text(&-1i64), "-1");
    assert_eq!(text(&i64::MAX), "9223372036854775807");
    assert_eq!(back::<u64>("18446744073709551615"), u64::MAX);
    assert_eq!(back::<i64>("-9223372036854775808"), i64::MIN);
    assert_eq!(back::<u64>("0"), 0);
    assert_eq!(text(&vec![u64::MAX, 0, 7]), "[18446744073709551615,0,7]");
}

/// A per-shard line of the stats report below.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Shard {
    shard: u32,
    accepted: u64,
    state: String,
    p50: Option<u64>,
    p99: Option<u64>,
    utilization: f64,
}

/// The fleet summary of the stats report below.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Slo {
    placement: String,
    submitted: u64,
    attainment: f64,
    p50: Option<u64>,
    p99: Option<u64>,
    mean_latency: f64,
    per_shard: Vec<Shard>,
}

/// Shaped like the daemon's `StatsReport`: nested structs, optional
/// quantiles, floats, and named counter pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Report {
    time: u64,
    slo: Slo,
    reject_reasons: Vec<(String, u64)>,
    counters: Vec<(String, u64)>,
}

#[test]
fn a_stats_report_shaped_value_round_trips_byte_for_byte() {
    let report = Report {
        time: u64::MAX,
        slo: Slo {
            placement: "model_guided".to_owned(),
            submitted: 160_000,
            attainment: 0.79375,
            p50: Some(3645),
            p99: None,
            mean_latency: 5021.25,
            per_shard: vec![
                Shard {
                    shard: 0,
                    accepted: 40_001,
                    state: "healthy".to_owned(),
                    p50: Some(0),
                    p99: Some(23_457),
                    utilization: 0.5,
                },
                Shard {
                    shard: 1,
                    accepted: 0,
                    state: "dead".to_owned(),
                    p50: None,
                    p99: None,
                    utilization: 0.0,
                },
            ],
        },
        reject_reasons: vec![("queue_full".to_owned(), 3)],
        counters: vec![
            ("serve.accepted".to_owned(), 40_001),
            ("serve.reject.queue_full".to_owned(), 3),
        ],
    };
    let json = concat!(
        r#"{"time":18446744073709551615,"slo":{"placement":"model_guided","#,
        r#""submitted":160000,"attainment":0.79375,"p50":3645,"p99":null,"#,
        r#""mean_latency":5021.25,"per_shard":[{"shard":0,"accepted":40001,"#,
        r#""state":"healthy","p50":0,"p99":23457,"utilization":0.5},"#,
        r#"{"shard":1,"accepted":0,"state":"dead","p50":null,"p99":null,"#,
        r#""utilization":0}]},"reject_reasons":[["queue_full",3]],"#,
        r#""counters":[["serve.accepted",40001],["serve.reject.queue_full",3]]}"#,
    );
    assert_eq!(text(&report), json);
    let parsed: Report = back(json);
    assert_eq!(parsed, report);
    assert_eq!(text(&parsed), json);
}
