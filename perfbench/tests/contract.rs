//! The benchmark's own contract: deterministic inputs, a metric catalogue
//! that matches `BENCHMARK.json`, and a traced run that reports how much
//! of `execute_plan` its outside replay leaves unattributed.

use perfbench::{kernels, metrics, serve};

/// A minimal JSON value, enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(
                self.s[self.i], b'\\',
                "escapes are not used in BENCHMARK.json"
            );
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'"' => Json::Str(self.string()),
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut v = Vec::new();
                loop {
                    let k = self.string();
                    self.eat(b':');
                    v.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(v);
                    }
                }
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().expect("number"))
            }
        }
    }
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(v) => {
                &v.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read(&path).expect("BENCHMARK.json at the repository root");
    let mut p = Parser { s: &text, i: 0 };
    p.value()
}

fn listed(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
}

#[test]
fn serve_inputs_are_deterministic_per_seed() {
    for kind in [serve::Kind::Hot, serve::Kind::Cold] {
        let x = serve::generate(kind, 7, 0.5, true);
        let y = serve::generate(kind, 7, 0.5, true);
        let z = serve::generate(kind, 8, 0.5, true);
        assert_eq!(x.frames, y.frames);
        assert_eq!(x.due, y.due);
        let ops = |i: &serve::Inputs| {
            i.open
                .iter()
                .map(|j| (j.op, j.tenant, j.frame))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(&x), ops(&y));
        assert!(x
            .pool
            .iter()
            .zip(&y.pool)
            .all(|(p, q)| p.a == q.a && p.b == q.b));
        assert_ne!(x.frames, z.frames, "another seed gives other inputs");
        let w = serve::generate(kind, 7, 0.5, false);
        assert!(w.drains.is_empty());
        assert_eq!(
            ops(&w),
            ops(&x),
            "the traced run replays the same open loop"
        );
    }
}

#[test]
fn cold_keys_are_new_and_arrive_twice() {
    let x = serve::generate(serve::Kind::Cold, 3, 0.5, true);
    let all: Vec<&serve::Job> = x
        .warm
        .iter()
        .chain(x.drains.iter().flatten())
        .chain(&x.open)
        .collect();
    for pair in all.chunks(2) {
        assert_eq!(pair[0].op, pair[1].op);
        assert_ne!(pair[0].tenant, pair[1].tenant);
    }
    let mut ops: Vec<usize> = all.iter().map(|j| j.op).collect();
    ops.dedup();
    let distinct: std::collections::BTreeSet<usize> = ops.iter().copied().collect();
    assert_eq!(distinct.len(), ops.len(), "no key is reused after its pair");
}

#[test]
fn kernel_inputs_are_deterministic_per_seed() {
    assert_eq!(kernels::generate(11), kernels::generate(11));
    assert_ne!(kernels::generate(11)[0], kernels::generate(12)[0]);
}

#[test]
fn traced_serve_run_reports_every_layer_and_unattributed_share() {
    let out = perfbench::run("serve_hot", 1, 0.2, true, None).expect("known workload");
    assert!(out.correct(), "every served and replayed output matches");
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let catalogue = metrics::per_layer();
    assert_eq!(
        names,
        catalogue
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
    );
    let share = out
        .metrics
        .iter()
        .find(|m| m.name == "planner.execute_unattributed_share")
        .expect("reported");
    assert!(
        share.value.is_finite() && share.value < 1.0,
        "{}",
        share.value
    );
    let pairs = out
        .metrics
        .iter()
        .find(|m| m.name == "planner.format_pairs")
        .expect("reported");
    assert!(pairs.value >= 1.0);
}

#[test]
fn untraced_run_reports_the_end_to_end_catalogue() {
    let out = perfbench::run("serve_cold", 2, 0.2, false, None).expect("known workload");
    assert!(out.correct());
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, metrics::END_TO_END.map(|(n, _)| n));
    assert!(
        out.metrics.iter().all(|m| m.value > 0.0),
        "end-to-end metrics are never 0"
    );
}
