//! `cargo xtask metrics-check <path>` — validator for the
//! `engine-metrics/v1` JSON documents written by
//! `MetricsSnapshot::write_json` (and emitted by the
//! `engine_metrics` example).
//!
//! CI runs the example and then this check, so a drifting field name,
//! a silently dropped counter, or a histogram whose buckets stop
//! summing to its count fails the pipeline instead of producing
//! unreadable artifacts. The parser is a dependency-free
//! recursive-descent reader of the JSON subset the writer emits
//! (objects, arrays, strings, non-negative integers); anything outside
//! that subset is itself a finding.

/// Counter keys an `engine-metrics/v1` document must carry, matching
/// the simulator's `keys` module one for one.
pub const REQUIRED_COUNTERS: &[&str] = &[
    "engine.runs",
    "engine.trials",
    "engine.wins",
    "engine.batches",
    "engine.recovered_batches",
    "chaos.faults",
    "engine.dispatch.threshold",
    "engine.dispatch.oblivious",
    "engine.dispatch.opaque",
    "rng.draws",
    "rng.lane_blocks",
    "pool.jobs",
    "pool.batches",
    "pool.panics",
    "pool.respawns",
    "pool.expired_jobs",
    "pool.busy_ns",
    "pool.idle_ns",
    "sweep.points",
    "sweep.checkpoint_writes",
    "sweep.resumed_points",
    "shard.issued",
    "shard.completed",
    "shard.reissued",
    "shard.killed",
    "shard.corrupt",
    "analytic.memo_hits",
    "analytic.memo_misses",
];

/// Histogram keys an `engine-metrics/v1` document must carry.
pub const REQUIRED_HISTOGRAMS: &[&str] = &["pool.job_ns", "sweep.point_ns", "shard.span_ns"];

/// What a valid document contained, for the success report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Value of the `rng_stream_version` field.
    pub rng_stream_version: u64,
    /// Number of counters present (required plus any extras).
    pub counters: usize,
    /// Number of histograms present.
    pub histograms: usize,
    /// Total samples across all histograms.
    pub samples: u64,
}

impl std::fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine-metrics/v1 (rng stream v{}): {} counters, {} histograms, {} samples",
            self.rng_stream_version, self.counters, self.histograms, self.samples
        )
    }
}

/// Validates the text of an `engine-metrics/v1` document.
///
/// # Errors
///
/// Returns a `path-free` description of the first structural problem:
/// malformed JSON, wrong schema tag, a missing or negative counter, a
/// malformed histogram, or bucket counts that do not sum to the
/// histogram's total.
pub fn validate_metrics_document(text: &str) -> Result<MetricsSummary, String> {
    let root = parse_json(text)?;
    let doc = root.as_object("document root")?;

    let schema = get(doc, "schema")?.as_string("schema")?;
    if schema != "engine-metrics/v1" {
        return Err(format!(
            "schema is {schema:?}, expected \"engine-metrics/v1\""
        ));
    }
    let rng_stream_version = get(doc, "rng_stream_version")?.as_u64("rng_stream_version")?;
    if rng_stream_version == 0 {
        return Err("rng_stream_version must be at least 1".to_owned());
    }

    let counters = get(doc, "counters")?.as_object("counters")?;
    for key in REQUIRED_COUNTERS {
        get_in(counters, key, "counters")?.as_u64(key)?;
    }
    for (key, value) in counters {
        value.as_u64(key)?;
    }

    let histograms = get(doc, "histograms")?.as_object("histograms")?;
    let mut samples = 0u64;
    for key in REQUIRED_HISTOGRAMS {
        samples += check_histogram(key, get_in(histograms, key, "histograms")?)?;
    }
    for (key, value) in histograms {
        if !REQUIRED_HISTOGRAMS.contains(&key.as_str()) {
            samples += check_histogram(key, value)?;
        }
    }

    Ok(MetricsSummary {
        rng_stream_version,
        counters: counters.len(),
        histograms: histograms.len(),
        samples,
    })
}

/// Checks one histogram object: `count`/`sum` fields, buckets with
/// strictly increasing `le` bounds, and bucket counts summing exactly
/// to `count`. Returns the histogram's sample count.
fn check_histogram(key: &str, value: &Json) -> Result<u64, String> {
    let hist = value.as_object(key)?;
    let count = get_in(hist, "count", key)?.as_u64("count")?;
    let _ = get_in(hist, "sum", key)?.as_u64("sum")?;
    let buckets = get_in(hist, "buckets", key)?.as_array("buckets")?;
    let mut total = 0u64;
    let mut last_le: Option<u64> = None;
    for bucket in buckets {
        let b = bucket.as_object("bucket")?;
        let le = get_in(b, "le", "bucket")?.as_u64("le")?;
        if last_le.is_some_and(|prev| le <= prev) {
            return Err(format!(
                "histogram {key:?}: bucket bounds not strictly increasing"
            ));
        }
        last_le = Some(le);
        total += get_in(b, "count", "bucket")?.as_u64("count")?;
    }
    if total != count {
        return Err(format!(
            "histogram {key:?}: buckets sum to {total}, count says {count}"
        ));
    }
    Ok(count)
}

/// A parsed JSON value over the subset the metrics writer emits.
/// Objects preserve key order (and duplicate detection happens at
/// parse time).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token so u64-range integers stay
    /// exact.
    Number(String),
    /// A string with escapes resolved.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An ordered object.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    pub(crate) fn as_object(&self, what: &str) -> Result<&Vec<(String, Json)>, String> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(format!(
                "{what} must be an object, found {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_array(&self, what: &str) -> Result<&Vec<Json>, String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!(
                "{what} must be an array, found {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_string(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!(
                "{what} must be a string, found {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Number(raw) => raw.parse::<u64>().map_err(|_| {
                format!("{what} must be a non-negative integer within u64 range, found {raw}")
            }),
            other => Err(format!(
                "{what} must be a number, found {}",
                other.type_name()
            )),
        }
    }
}

/// Looks up a required top-level field.
pub(crate) fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    get_in(fields, key, "document root")
}

/// Looks up a required field inside a named object.
pub(crate) fn get_in<'a>(
    fields: &'a [(String, Json)],
    key: &str,
    within: &str,
) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{within} is missing required field {key:?}"))
}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing data after the document"));
    }
    Ok(value)
}

/// Recursive-descent state over the raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, message: &str) -> String {
        format!("byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", char::from(byte))))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return Err(self.fail("expected digits"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("number is not UTF-8"))?;
        Ok(Json::Number(raw.to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        _ => return Err(self.fail("unsupported escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.fail("string is not UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.fail("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// A minimal valid document: every required counter at zero, both
    /// required histograms empty.
    fn valid_document() -> String {
        let mut counters = String::new();
        for (i, key) in REQUIRED_COUNTERS.iter().enumerate() {
            let comma = if i + 1 < REQUIRED_COUNTERS.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(counters, "    {key:?}: 0{comma}");
        }
        format!(
            "{{\n  \"schema\": \"engine-metrics/v1\",\n  \"rng_stream_version\": 2,\n  \
             \"counters\": {{\n{counters}  }},\n  \"histograms\": {{\n    \
             \"pool.job_ns\": {{\"count\": 0, \"sum\": 0, \"buckets\": []}},\n    \
             \"sweep.point_ns\": {{\"count\": 3, \"sum\": 900, \"buckets\": \
             [{{\"le\": 255, \"count\": 1}}, {{\"le\": 511, \"count\": 2}}]}},\n    \
             \"shard.span_ns\": {{\"count\": 0, \"sum\": 0, \"buckets\": []}}\n  }}\n}}\n"
        )
    }

    #[test]
    fn valid_document_passes_and_summarizes() {
        let summary = validate_metrics_document(&valid_document()).expect("valid");
        assert_eq!(
            summary,
            MetricsSummary {
                rng_stream_version: 2,
                counters: REQUIRED_COUNTERS.len(),
                histograms: 3,
                samples: 3,
            }
        );
        assert!(summary.to_string().contains("28 counters"));
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let doc = valid_document().replace("engine-metrics/v1", "engine-metrics/v0");
        let err = validate_metrics_document(&doc).expect_err("schema mismatch");
        assert!(err.contains("engine-metrics/v1"), "{err}");
    }

    #[test]
    fn each_missing_counter_is_reported() {
        for key in REQUIRED_COUNTERS {
            let doc = valid_document().replace(&format!("{key:?}"), &format!("\"x.{key}\""));
            let err = validate_metrics_document(&doc).expect_err("missing counter");
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn negative_and_fractional_counters_are_rejected() {
        let negative = valid_document().replace("\"rng.draws\": 0", "\"rng.draws\": -4");
        assert!(validate_metrics_document(&negative)
            .expect_err("negative")
            .contains("rng.draws"));
        let fractional = valid_document().replace("\"rng.draws\": 0", "\"rng.draws\": 0.5");
        assert!(validate_metrics_document(&fractional)
            .expect_err("fractional")
            .contains("rng.draws"));
    }

    #[test]
    fn bucket_sum_mismatch_is_rejected() {
        let doc =
            valid_document().replace("\"count\": 3, \"sum\": 900", "\"count\": 4, \"sum\": 900");
        let err = validate_metrics_document(&doc).expect_err("sum mismatch");
        assert!(err.contains("buckets sum to 3, count says 4"), "{err}");
    }

    #[test]
    fn unordered_bucket_bounds_are_rejected() {
        let doc =
            valid_document().replace("{\"le\": 511, \"count\": 2}", "{\"le\": 255, \"count\": 2}");
        let err = validate_metrics_document(&doc).expect_err("duplicate bound");
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn real_writer_output_validates() {
        // The committed example artifact, when present, must satisfy
        // the checker — this pins writer and checker to one schema.
        let path = crate::repo_root().join("results/engine_metrics.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            let summary = validate_metrics_document(&text).expect("committed artifact");
            assert_eq!(summary.rng_stream_version, 4);
        }
    }

    #[test]
    fn parser_rejects_trailing_data_and_duplicate_keys() {
        assert!(parse_json("{} {}")
            .expect_err("trailing")
            .contains("trailing"));
        assert!(parse_json("{\"a\": 1, \"a\": 2}")
            .expect_err("dup")
            .contains("duplicate"));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn parser_handles_the_writer_grammar() {
        let v = parse_json(" {\"a\": [1, {\"b\": \"x\\ny\"}], \"c\": true, \"d\": null} ")
            .expect("valid");
        let obj = v.as_object("root").expect("object");
        assert_eq!(obj.len(), 3);
        assert_eq!(get_in(obj, "c", "root").expect("c"), &Json::Bool(true));
    }
}
