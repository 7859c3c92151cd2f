//! Golden-snapshot engine: a hand-rolled JSON codec (offline — no serde),
//! snapshot flattening, and tolerance-aware diffing.
//!
//! Every scenario in [`crate::corpus`] pins its full equilibrium record to
//! a committed file under `tests/golden/`. The codec here is deliberately
//! minimal and deterministic: objects preserve insertion order, floats are
//! rendered with Rust's shortest round-trip formatting (`{:?}`), and the
//! renderer is stable byte-for-byte across runs — `regen_golden` run twice
//! produces identical files.
//!
//! Comparison is *not* byte-level: goldens are parsed back and diffed
//! field-by-field under the per-field tolerance policy of
//! [`snapshot_tolerances`], so harmless float drift (a refactor that
//! reorders additions) passes while a shifted equilibrium fails with a
//! named, readable diff.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so rendering is
/// deterministic and diffs against committed files stay minimal.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key–value pairs).
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`] with a byte offset for context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (panics if `self` is not an object — the
    /// snapshot builders only ever call this on [`Json::obj`]).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builds an array of numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number held, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string held, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    ///
    /// Scalar-only arrays render on one line; nested structures indent by
    /// two spaces per level. Panics on non-finite numbers — snapshots must
    /// encode only finite values (guard upstream).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders like [`Json::render`], but rejects non-finite numbers with
    /// an explicit [`JsonError`] naming the offending path instead of
    /// panicking (and instead of ever emitting `NaN`/`inf` tokens that no
    /// JSON parser — including [`Json::parse`] — would accept back).
    ///
    /// Use this on values built from untrusted or runtime data (e.g. the
    /// server cache serializer); the panicking [`Json::render`] stays for
    /// snapshot builders whose inputs are validated upstream.
    pub fn try_render(&self) -> Result<String, JsonError> {
        self.check_finite("$")?;
        Ok(self.render())
    }

    /// Pre-walks the value for non-finite numbers, tracking a dotted path
    /// (`$.rows[3].phi`) for the error message. Offset is 0: the error
    /// describes the value tree, not a byte position in rendered output.
    fn check_finite(&self, path: &str) -> Result<(), JsonError> {
        match self {
            Json::Num(x) if !x.is_finite() => Err(JsonError {
                message: format!("cannot encode non-finite number {x} at {path}"),
                offset: 0,
            }),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .try_for_each(|(k, item)| item.check_finite(&format!("{path}[{k}]"))),
            Json::Obj(fields) => fields
                .iter()
                .try_for_each(|(key, value)| value.check_finite(&format!("{path}.{key}"))),
            _ => Ok(()),
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "cannot encode non-finite number {x}");
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else if items.iter().all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))) {
                    out.push('[');
                    for (k, item) in items.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        item.render_into(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (k, item) in items.iter().enumerate() {
                        pad(out, indent + 1);
                        item.render_into(out, indent + 1);
                        out.push_str(if k + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (k, (key, value)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                    out.push_str(if k + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this codec emits, which is all
    /// of JSON except exotic string escapes beyond `\uXXXX`).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing content after document", pos));
        }
        Ok(value)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError { message: message.to_string(), offset }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err("unexpected character", *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err("invalid literal", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("bad utf8", start))?;
    token.parse::<f64>().map(Json::Num).map_err(|_| err("invalid number", start)).and_then(|v| {
        match v {
            Json::Num(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(err("non-finite number", start)),
        }
    })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("invalid \\u escape", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err("bad utf8", *pos))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Flattening and diffing
// ---------------------------------------------------------------------------

/// A scalar leaf of a flattened snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// `null`.
    Null,
}

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Num(x) => write!(f, "{x:?}"),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Str(s) => write!(f, "{s:?}"),
            Leaf::Null => write!(f, "null"),
        }
    }
}

/// Flattens a JSON tree into dotted `path → leaf` pairs, e.g.
/// `equilibrium.subsidies[3] → 0.127`.
pub fn flatten(value: &Json) -> Vec<(String, Leaf)> {
    let mut out = Vec::new();
    flatten_into(value, String::new(), &mut out);
    out
}

fn flatten_into(value: &Json, path: String, out: &mut Vec<(String, Leaf)>) {
    match value {
        Json::Null => out.push((path, Leaf::Null)),
        Json::Bool(b) => out.push((path, Leaf::Bool(*b))),
        Json::Num(x) => out.push((path, Leaf::Num(*x))),
        Json::Str(s) => out.push((path, Leaf::Str(s.clone()))),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_into(item, format!("{path}[{i}]"), out);
            }
            if items.is_empty() {
                out.push((format!("{path}.len"), Leaf::Num(0.0)));
            }
        }
        Json::Obj(fields) => {
            for (key, item) in fields {
                let p = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                flatten_into(item, p, out);
            }
            if fields.is_empty() {
                out.push((format!("{path}.len"), Leaf::Num(0.0)));
            }
        }
    }
}

/// One mismatched field between a golden snapshot and a fresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    /// Dotted field path.
    pub field: String,
    /// Value in the committed golden (or `"<missing>"`).
    pub expected: String,
    /// Value in the fresh run (or `"<missing>"`).
    pub actual: String,
    /// Relative error for numeric mismatches (`inf` for type/shape ones).
    pub rel_err: f64,
}

/// Per-field absolute/relative tolerance policy for snapshot comparison.
///
/// | field class | atol | rtol | rationale |
/// |---|---|---|---|
/// | `*.iterations` | 5 | 0.5 | solver effort may drift; order of magnitude is guarded |
/// | `*residual*`, `*kkt*` | 2e-6 | 0 | health indicators: anything certificate-tight passes |
/// | `*.jacobi_gap` | 1e-5 | 0 | cross-solver agreement bound (Theorem 4 tolerance) |
/// | `sim.distance_to_nash` | 1e-9 | 5e-6 | inherits solver float drift through the Nash reference |
/// | other `sim.*` | 1e-9 | 1e-9 | the simulator itself is bit-deterministic per seed |
/// | everything else | 1e-9 | 5e-6 | equilibrium quantities at solver tolerance 1e-9 |
pub fn snapshot_tolerances(path: &str) -> (f64, f64) {
    if path.ends_with(".iterations") {
        (5.0, 0.5)
    } else if path.contains("residual") || path.contains("kkt") {
        (2e-6, 0.0)
    } else if path.ends_with(".jacobi_gap") {
        (1e-5, 0.0)
    } else if (path.starts_with("sim.") || path.contains(".sim."))
        && !path.ends_with(".distance_to_nash")
    {
        (1e-9, 1e-9)
    } else {
        (1e-9, 5e-6)
    }
}

/// Diffs two snapshots field-by-field under a tolerance policy
/// (`path → (atol, rtol)`). Returns the mismatches; empty means equal
/// within tolerance.
pub fn diff_snapshots(
    expected: &Json,
    actual: &Json,
    tolerances: &dyn Fn(&str) -> (f64, f64),
) -> Vec<FieldDiff> {
    let want = flatten(expected);
    let got = flatten(actual);
    let got_map: std::collections::HashMap<&str, &Leaf> =
        got.iter().map(|(p, l)| (p.as_str(), l)).collect();
    let want_keys: std::collections::HashSet<&str> = want.iter().map(|(p, _)| p.as_str()).collect();

    let mut out = Vec::new();
    for (path, exp) in &want {
        match got_map.get(path.as_str()) {
            None => out.push(FieldDiff {
                field: path.clone(),
                expected: exp.to_string(),
                actual: "<missing>".to_string(),
                rel_err: f64::INFINITY,
            }),
            Some(act) => {
                if let Some(d) = leaf_diff(path, exp, act, tolerances) {
                    out.push(d);
                }
            }
        }
    }
    for (path, act) in &got {
        if !want_keys.contains(path.as_str()) {
            out.push(FieldDiff {
                field: path.clone(),
                expected: "<missing>".to_string(),
                actual: act.to_string(),
                rel_err: f64::INFINITY,
            });
        }
    }
    out
}

fn leaf_diff(
    path: &str,
    expected: &Leaf,
    actual: &Leaf,
    tolerances: &dyn Fn(&str) -> (f64, f64),
) -> Option<FieldDiff> {
    let mismatch = |rel_err: f64| FieldDiff {
        field: path.to_string(),
        expected: expected.to_string(),
        actual: actual.to_string(),
        rel_err,
    };
    match (expected, actual) {
        (Leaf::Num(e), Leaf::Num(a)) => {
            let (atol, rtol) = tolerances(path);
            let scale = e.abs().max(a.abs());
            let abs_err = (e - a).abs();
            if abs_err <= atol + rtol * scale {
                None
            } else {
                Some(mismatch(abs_err / scale.max(f64::MIN_POSITIVE)))
            }
        }
        (a, b) if a == b => None,
        _ => Some(mismatch(f64::INFINITY)),
    }
}

/// Renders a readable diff table for one scenario: field, expected,
/// actual, relative error.
pub fn render_diff(scenario: &str, diffs: &[FieldDiff]) -> String {
    let mut table = crate::report::Table::new(&["field", "expected", "actual", "rel-err"]);
    for d in diffs {
        table.row_strings(&[
            d.field.clone(),
            d.expected.clone(),
            d.actual.clone(),
            format!("{:.2e}", d.rel_err),
        ]);
    }
    format!("scenario `{scenario}`: {} field(s) out of tolerance\n{}", diffs.len(), table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        let mut eq = Json::obj();
        eq.set("subsidies", Json::nums(&[0.1, 0.25]));
        eq.set("phi", Json::Num(0.625));
        let mut root = Json::obj();
        root.set("name", Json::Str("demo".into()));
        root.set("converged", Json::Bool(true));
        root.set("equilibrium", eq);
        root.set("sim", Json::Null);
        root
    }

    #[test]
    fn render_parse_roundtrip() {
        let doc = sample();
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
        // Deterministic: rendering the parse is byte-identical.
        assert_eq!(text, back.render());
    }

    #[test]
    fn renders_shortest_roundtrip_floats() {
        let text = Json::Num(0.1).render();
        assert_eq!(text, "0.1\n");
        let tiny = Json::Num(6.123233995736766e-17).render();
        assert_eq!(Json::parse(&tiny).unwrap().as_num().unwrap(), 6.123233995736766e-17);
    }

    #[test]
    fn negative_zero_roundtrips_bit_exact() {
        // `-0.0` must survive render → parse with its sign bit: the server
        // cache serializer reuses this codec, and a codec that collapsed
        // `-0.0` to `0.0` would silently alias two distinct snapshots.
        let text = Json::Num(-0.0).render();
        assert_eq!(text, "-0.0\n");
        let back = Json::parse(&text).unwrap().as_num().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // And +0.0 stays +0.0 — the two zeros remain distinguishable.
        let pos = Json::parse(&Json::Num(0.0).render()).unwrap().as_num().unwrap();
        assert_eq!(pos.to_bits(), 0.0f64.to_bits());
        // Nested round-trip through an array keeps both signs.
        let doc = Json::nums(&[-0.0, 0.0]);
        let bits: Vec<u64> = match Json::parse(&doc.render()).unwrap() {
            Json::Arr(items) => items.iter().map(|i| i.as_num().unwrap().to_bits()).collect(),
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(bits, vec![(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    #[test]
    fn try_render_rejects_non_finite_with_path() {
        let mut eq = Json::obj();
        eq.set("phi", Json::Num(0.5));
        eq.set("subsidies", Json::nums(&[0.1, f64::NAN]));
        let mut root = Json::obj();
        root.set("equilibrium", eq);
        let err = root.try_render().unwrap_err();
        assert!(
            err.message.contains("$.equilibrium.subsidies[1]"),
            "error must name the offending path, got: {}",
            err.message
        );
        let inf = Json::Num(f64::INFINITY).try_render().unwrap_err();
        assert!(inf.message.contains("non-finite"), "got: {}", inf.message);
        // Finite trees render identically to the panicking path.
        let ok = sample();
        assert_eq!(ok.try_render().unwrap(), ok.render());
    }

    #[test]
    #[should_panic(expected = "cannot encode non-finite number")]
    fn render_panics_on_non_finite() {
        // The panicking path stays panicking: snapshot builders validate
        // upstream, and silently emitting `NaN` would be invalid JSON.
        Json::Num(f64::NAN).render();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, ]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("1e999").is_err(), "overflow to inf must be rejected");
    }

    #[test]
    fn parse_string_escapes() {
        let j = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "a\"b\\c\ndA");
    }

    #[test]
    fn flatten_paths() {
        let flat = flatten(&sample());
        let paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"equilibrium.subsidies[1]"));
        assert!(paths.contains(&"name"));
        assert!(paths.contains(&"sim"));
    }

    #[test]
    fn diff_is_empty_for_identical_snapshots() {
        let a = sample();
        assert!(diff_snapshots(&a, &a, &snapshot_tolerances).is_empty());
    }

    #[test]
    fn diff_catches_one_shifted_field() {
        let a = sample();
        let mut b = sample();
        if let Json::Obj(fields) = &mut b {
            if let Json::Obj(eq) = &mut fields[2].1 {
                eq[1].1 = Json::Num(0.7); // phi: 0.625 -> 0.7
            }
        }
        let diffs = diff_snapshots(&a, &b, &snapshot_tolerances);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].field, "equilibrium.phi");
        assert!(diffs[0].rel_err > 0.1);
        let rendered = render_diff("demo", &diffs);
        assert!(rendered.contains("equilibrium.phi"));
        assert!(rendered.contains("0.625"));
    }

    #[test]
    fn diff_tolerates_float_noise() {
        let a = sample();
        let mut b = sample();
        if let Json::Obj(fields) = &mut b {
            if let Json::Obj(eq) = &mut fields[2].1 {
                eq[1].1 = Json::Num(0.625 * (1.0 + 1e-9)); // below rtol 5e-6
            }
        }
        assert!(diff_snapshots(&a, &b, &snapshot_tolerances).is_empty());
    }

    #[test]
    fn diff_reports_missing_and_extra() {
        let a = sample();
        let mut b = sample();
        if let Json::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k != "converged");
            fields.push(("stray".into(), Json::Num(1.0)));
        }
        let diffs = diff_snapshots(&a, &b, &snapshot_tolerances);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().any(|d| d.field == "converged" && d.actual == "<missing>"));
        assert!(diffs.iter().any(|d| d.field == "stray" && d.expected == "<missing>"));
    }

    #[test]
    fn tolerance_policy_classes() {
        assert_eq!(snapshot_tolerances("diagnostics.iterations"), (5.0, 0.5));
        assert_eq!(snapshot_tolerances("diagnostics.max_kkt_residual"), (2e-6, 0.0));
        assert_eq!(snapshot_tolerances("sim.final_subsidies[0]"), (1e-9, 1e-9));
        // distance_to_nash compares against the float-drifting Nash
        // reference, so it gets the default class, not the sim one.
        assert_eq!(snapshot_tolerances("sim.distance_to_nash"), (1e-9, 5e-6));
        assert_eq!(snapshot_tolerances("equilibrium.phi"), (1e-9, 5e-6));
    }

    #[test]
    fn empty_containers_keep_a_shape_marker() {
        // An emptied vector or object must not silently equal an absent
        // one — both flatten to an explicit `.len` leaf.
        for empty in [Json::Arr(vec![]), Json::obj()] {
            let flat = flatten(&empty);
            assert_eq!(flat.len(), 1);
            assert!(flat[0].0.ends_with(".len"));
        }
    }
}
