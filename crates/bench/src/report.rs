//! Shared trajectory-report plumbing for the `bench_*` binaries.
//!
//! Each binary appends its results to a `BENCH_*.json` file (overwritten
//! per run) so successive commits leave a comparable trajectory. The
//! container ships no serde_json, so the writer and the schema validator
//! are hand-rolled here: every record carries the common columns
//! `{name, threads, ops_per_sec, wall_ms}`, optional benchmark-specific
//! numeric columns ([`Record::extra`]), and a trailing `git_rev`.

use std::time::Instant;

/// One output record; serialized as one flat JSON object.
pub struct Record {
    /// Row label (e.g. `engine_banked8`, `engine_concurrent`).
    pub name: String,
    /// Threads (or fan-out jobs) the row ran with.
    pub threads: usize,
    /// Primary throughput metric.
    pub ops_per_sec: f64,
    /// Wall-clock of the row, milliseconds.
    pub wall_ms: f64,
    /// Benchmark-specific numeric columns, serialized between `wall_ms`
    /// and `git_rev` in declaration order. Keys must match the
    /// `extra_keys` the benchmark validates with.
    pub extra: Vec<(&'static str, f64)>,
}

impl Record {
    /// A record with no benchmark-specific columns.
    pub fn new(name: &str, threads: usize, ops_per_sec: f64, wall_ms: f64) -> Self {
        Record {
            name: name.to_owned(),
            threads,
            ops_per_sec,
            wall_ms,
            extra: Vec::new(),
        }
    }
}

/// Times `f`, returning `(result, wall_ms)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1000.0)
}

/// Short git revision of the working tree, or `"unknown"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `records` as a JSON array, one object per line.
pub fn render_json(records: &[Record], rev: &str) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let mut extras = String::new();
        for (k, v) in &r.extra {
            extras.push_str(&format!("\"{k}\": {v:.3}, "));
        }
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"threads\": {}, \"ops_per_sec\": {:.2}, \
             \"wall_ms\": {:.3}, {}\"git_rev\": \"{}\"}}{}\n",
            json_escape(&r.name),
            r.threads,
            r.ops_per_sec,
            r.wall_ms,
            extras,
            json_escape(rev),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

// ---- schema validation (no serde_json in the container) --------------------

/// Minimal JSON value for the flat records the benchmarks emit.
#[derive(Debug, PartialEq)]
enum Val {
    Str(String),
    Num(f64),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => other as char,
                    });
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".to_owned())
    }
    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
    /// Parses a flat object of string/number values.
    fn object(&mut self) -> Result<Vec<(String, Val)>, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(pairs);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let val = match self.peek() {
                Some(b'"') => Val::Str(self.string()?),
                _ => Val::Num(self.number()?),
            };
            pairs.push((key, val));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(pairs);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

/// Validates `text` as an array of records with exactly the schema
/// `{name: str, threads: int, ops_per_sec: num, wall_ms: num,
/// <extra_keys: num>, git_rev: str}`. Returns the record count.
pub fn validate_schema(text: &str, extra_keys: &[&str]) -> Result<usize, String> {
    let mut p = Parser::new(text);
    p.eat(b'[')?;
    let mut n = 0;
    if p.peek() == Some(b']') {
        return Err("no records emitted".to_owned());
    }
    loop {
        let obj = p.object()?;
        let field = |k: &str| -> Result<&Val, String> {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("record {n} missing key '{k}'"))
        };
        match field("name")? {
            Val::Str(_) => {}
            v => return Err(format!("record {n}: name must be a string, got {v:?}")),
        }
        match field("threads")? {
            Val::Num(t) if t.fract() == 0.0 && *t >= 1.0 => {}
            v => {
                return Err(format!(
                    "record {n}: threads must be a positive int, got {v:?}"
                ))
            }
        }
        for k in ["ops_per_sec", "wall_ms"].iter().chain(extra_keys) {
            match field(k)? {
                Val::Num(x) if x.is_finite() && *x >= 0.0 => {}
                v => {
                    return Err(format!(
                        "record {n}: {k} must be a finite number, got {v:?}"
                    ))
                }
            }
        }
        match field("git_rev")? {
            Val::Str(r) if !r.is_empty() => {}
            v => return Err(format!("record {n}: git_rev must be non-empty, got {v:?}")),
        }
        if obj.len() != 5 + extra_keys.len() {
            return Err(format!(
                "record {n}: expected exactly {} keys, got {}",
                5 + extra_keys.len(),
                obj.len()
            ));
        }
        n += 1;
        match p.peek() {
            Some(b',') => p.i += 1,
            Some(b']') => return Ok(n),
            _ => return Err(format!("expected ',' or ']' at byte {}", p.i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_validate_roundtrips() {
        let records = vec![
            Record::new("engine_global", 1, 1234.5, 10.25),
            Record::new("sweep_jobs4", 4, 8.0, 900.0),
        ];
        let json = render_json(&records, "abc1234");
        assert_eq!(validate_schema(&json, &[]), Ok(2));
    }

    #[test]
    fn extra_columns_roundtrip_and_are_enforced() {
        let mut r = Record::new("engine_concurrent", 4, 5e6, 12.0);
        r.extra.push(("shards", 4.0));
        let json = render_json(&[r], "abc1234");
        // Validates with the matching extra key...
        assert_eq!(validate_schema(&json, &["shards"]), Ok(1));
        // ...but is rejected both without it (key count) and with a
        // different one (missing key).
        assert!(validate_schema(&json, &[]).is_err());
        assert!(validate_schema(&json, &["lock_acqs"]).is_err());
    }

    #[test]
    fn validator_rejects_missing_and_malformed_fields() {
        assert!(validate_schema("[]", &[]).is_err());
        assert!(validate_schema(r#"[{"name": "x", "threads": 1}]"#, &[]).is_err());
        let bad_threads = r#"[{"name": "x", "threads": 1.5, "ops_per_sec": 1,
            "wall_ms": 2, "git_rev": "r"}]"#;
        assert!(validate_schema(bad_threads, &[]).is_err());
        let ok = r#"[{"name": "x", "threads": 2, "ops_per_sec": 1.0,
            "wall_ms": 2.5, "git_rev": "r"}]"#;
        assert_eq!(validate_schema(ok, &[]), Ok(1));
    }
}
