//! `bench-check` — validates the committed `BENCH_*.json` trajectory files.
//!
//! The bench commands hand-roll their JSON (the workspace is hermetic, no
//! serde), so a formatting slip in a report function would silently corrupt
//! the trajectory the CI publishes. This binary re-parses every
//! `BENCH_*.json` in the given directory (default `.`) with a strict
//! minimal JSON parser and asserts the per-benchmark required keys are
//! present and well-typed. Exits nonzero on any failure; ci.sh runs it
//! after the bench steps.
//!
//! ```text
//! bench-check [DIR]
//! ```

use std::process::exit;

/// A parsed JSON value — just enough structure for key/type checks.
#[derive(Debug)]
enum Value {
    Null,
    // The parser represents booleans faithfully even though no current
    // benchmark schema requires one.
    #[allow(dead_code)]
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Strict recursive-descent JSON parser: rejects trailing garbage, trailing
/// commas, unquoted keys — anything a sloppy formatter might emit.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                other => out.push(other as char),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            pairs.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', got {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {:?}", other as char)),
            }
        }
    }
}

/// Required keys per benchmark name (`"benchmark"` itself is always
/// required): `(key, expected type)`.
fn required_keys(benchmark: &str) -> &'static [(&'static str, &'static str)] {
    match benchmark {
        "enterprise" => &[
            ("scale", "string"),
            ("seed", "number"),
            ("entities", "number"),
            ("graph_fingerprint", "string"),
            ("revocation_storm", "array"),
            ("crossover", "array"),
        ],
        "authenticated_index" => {
            &[("page", "number"), ("points", "array"), ("mutate_then_prove", "array")]
        }
        "concurrency" => {
            &[("backend", "string"), ("points", "array"), ("speedup_multi_vs_single", "number")]
        }
        _ => &[],
    }
}

fn type_matches(v: &Value, want: &str) -> bool {
    v.type_name() == want
}

fn check_file(path: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let root = Parser::parse(&text)?;
    let benchmark = match root.get("benchmark") {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => return Err(format!("\"benchmark\" must be a string, got {}", v.type_name())),
        None => return Err("missing required key \"benchmark\"".into()),
    };
    let required = required_keys(&benchmark);
    if required.is_empty() {
        return Err(format!("unknown benchmark name {benchmark:?} (update bench-check)"));
    }
    for (key, want) in required {
        match root.get(key) {
            Some(v) if type_matches(v, want) => {
                if let Value::Num(n) = v {
                    if !n.is_finite() {
                        return Err(format!("key {key:?} is not a finite number"));
                    }
                }
            }
            Some(v) => {
                return Err(format!("key {key:?} must be {want}, got {}", v.type_name()));
            }
            None => return Err(format!("missing required key {key:?}")),
        }
    }
    // Every per-point object in a points array must carry its mode/threads
    // identity so downstream plotting never guesses.
    if benchmark == "concurrency" {
        if let Some(Value::Arr(points)) = root.get("points") {
            if points.is_empty() {
                return Err("concurrency \"points\" must not be empty".into());
            }
            for (i, p) in points.iter().enumerate() {
                for key in ["mode", "threads", "ops", "ops_per_sec", "p50_ns", "p95_ns", "p99_ns"] {
                    if p.get(key).is_none() {
                        return Err(format!("points[{i}] missing {key:?}"));
                    }
                }
            }
        }
    }
    Ok(benchmark)
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench-check: reading {dir}: {e}");
            exit(2);
        }
    };
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("bench-check: no BENCH_*.json files found in {dir}");
        exit(1);
    }
    let mut failed = false;
    for path in &files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        match check_file(path) {
            Ok(benchmark) => println!("bench-check: {name}: ok ({benchmark})"),
            Err(e) => {
                eprintln!("bench-check: {name}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
    println!("bench-check: {} file(s) validated", files.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_bench_shapes() {
        let v = Parser::parse(
            "{\"benchmark\": \"concurrency\", \"points\": [{\"mode\": \"blocking\", \"x\": 1.5}], \
             \"ok\": true, \"none\": null}",
        )
        .unwrap();
        assert!(matches!(v.get("benchmark"), Some(Value::Str(s)) if s == "concurrency"));
        assert!(matches!(v.get("ok"), Some(Value::Bool(true))));
        assert!(matches!(v.get("none"), Some(Value::Null)));
        let Some(Value::Arr(points)) = v.get("points") else { panic!("points") };
        assert!(matches!(points[0].get("x"), Some(Value::Num(n)) if *n == 1.5));
    }

    #[test]
    fn parser_rejects_malformed_json() {
        for bad in [
            "{\"a\": 1,}",
            "{\"a\": 1} extra",
            "{a: 1}",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
        ] {
            assert!(Parser::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn required_key_enforcement() {
        let dir = std::env::temp_dir().join(format!("bench-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("BENCH_concurrency.json");
        std::fs::write(
            &good,
            "{\"benchmark\": \"concurrency\", \"backend\": \"memory\", \"points\": \
             [{\"mode\": \"blocking\", \"threads\": 1, \"ops\": 10, \"ops_per_sec\": 5.0, \
             \"p50_ns\": 1, \"p95_ns\": 2, \"p99_ns\": 3}], \
             \"speedup_multi_vs_single\": 2.5}",
        )
        .unwrap();
        assert_eq!(check_file(&good).unwrap(), "concurrency");

        let bad = dir.join("BENCH_missing.json");
        std::fs::write(&bad, "{\"benchmark\": \"concurrency\", \"points\": []}").unwrap();
        let err = check_file(&bad).unwrap_err();
        assert!(err.contains("backend"), "got {err:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
