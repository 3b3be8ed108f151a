//! Observability artifact validator: parses every file named on the
//! command line through the in-tree JSON parser and checks the
//! schema-specific invariants, exiting nonzero on the first violation.
//!
//! ```sh
//! cargo run --release --example validate_artifacts -- trace.json profile.json
//! ```
//!
//! Recognized artifacts (sniffed from content, not the filename):
//!
//! - Chrome traces (`{"displayTimeUnit":...,"traceEvents":[...]}`):
//!   every event must carry `ph`/`pid`/`tid`, complete events (`"X"`)
//!   must carry `ts` + `dur`, and at least one span and one named lane
//!   must be present,
//! - `printed-profile/v1`: `attributed_evals` must equal `gate_evals`
//!   (the attribution tiles the engine's work counter), hotspot evals
//!   must not exceed the total, and `machine.cycles` must equal the sum
//!   of its per-opcode cycles,
//! - `printed-regression/v1`: `pass` must be a boolean consistent with
//!   the per-check `ok` flags,
//! - `printed-diff-summary/v1`: every row must carry string
//!   `kernel`/`config`, numeric `steps`/`cycles`, boolean
//!   `halted`/`result_ok` and a string-or-null `divergence`, and the
//!   `totals` must count the rows, the divergences and the wrong results,
//! - `BENCH_history.jsonl` ledgers: every line must be a
//!   `printed-bench-record/v1` record, with an optional boolean `dirty`
//!   (validated via `printed_eval::regression::parse_history`).

use printed_microprocessors::eval::regression;
use printed_microprocessors::obs::json::{self, Value};

fn fail(path: &str, message: &str) -> Box<dyn std::error::Error> {
    format!("{path}: {message}").into()
}

fn as_array<'v>(
    v: &'v Value,
    key: &str,
    path: &str,
) -> Result<&'v Vec<Value>, Box<dyn std::error::Error>> {
    match v.get(key) {
        Some(Value::Array(a)) => Ok(a),
        _ => Err(fail(path, &format!("{key} missing or not an array"))),
    }
}

fn num(v: &Value, key: &str, path: &str) -> Result<f64, Box<dyn std::error::Error>> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| fail(path, &format!("{key} missing or not a number")))
}

fn validate_chrome_trace(v: &Value, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let events = as_array(v, "traceEvents", path)?;
    let mut spans = 0usize;
    let mut lanes = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| fail(path, &format!("event {i} has no ph")))?;
        for key in ["pid", "tid"] {
            num(ev, key, path).map_err(|_| fail(path, &format!("event {i} has no {key}")))?;
        }
        match ph {
            "X" => {
                num(ev, "ts", path)?;
                num(ev, "dur", path)?;
                spans += 1;
            }
            "C" => {
                num(ev, "ts", path)?;
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| fail(path, &format!("counter event {i} has no args.value")))?;
            }
            "M" => {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail(path, &format!("meta event {i} has no args.name")))?;
                lanes += 1;
            }
            other => return Err(fail(path, &format!("event {i} has unknown ph {other:?}"))),
        }
    }
    if spans == 0 {
        return Err(fail(path, "trace has no complete (ph=X) span events"));
    }
    if lanes == 0 {
        return Err(fail(path, "trace has no thread_name lane metadata"));
    }
    Ok(format!("chrome trace: {} events, {spans} spans, {lanes} named lanes", events.len()))
}

fn validate_profile(v: &Value, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let gate_evals = num(v, "gate_evals", path)?;
    let attributed = num(v, "attributed_evals", path)?;
    if gate_evals != attributed {
        return Err(fail(
            path,
            &format!("attribution does not tile: attributed_evals {attributed} != gate_evals {gate_evals}"),
        ));
    }
    let hotspots = as_array(v, "hotspots", path)?;
    let hotspot_evals: f64 =
        hotspots.iter().map(|h| num(h, "evals", path)).sum::<Result<f64, _>>()?;
    if hotspot_evals > gate_evals {
        return Err(fail(path, "top-K hotspot evals exceed the engine total"));
    }
    let level_evals: f64 = as_array(v, "levels", path)?
        .iter()
        .map(|l| num(l, "evals", path))
        .sum::<Result<f64, _>>()?;
    if level_evals != gate_evals {
        return Err(fail(
            path,
            &format!("level aggregation does not tile: {level_evals} != {gate_evals}"),
        ));
    }
    let machine = v.get("machine").ok_or_else(|| fail(path, "missing machine section"))?;
    let machine_cycles = num(machine, "cycles", path)?;
    let opcode_cycles: f64 = as_array(machine, "opcodes", path)?
        .iter()
        .map(|o| num(o, "cycles", path))
        .sum::<Result<f64, _>>()?;
    if machine_cycles != opcode_cycles {
        return Err(fail(
            path,
            &format!("per-opcode cycles do not tile: {opcode_cycles} != {machine_cycles}"),
        ));
    }
    Ok(format!(
        "printed-profile/v1: {gate_evals} gate evals tiled over {} hotspots, \
         machine cycles tiled over {} opcodes",
        hotspots.len(),
        as_array(machine, "opcodes", path)?.len()
    ))
}

fn validate_regression(v: &Value, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let pass = match v.get("pass") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(fail(path, "pass missing or not a boolean")),
    };
    let checks = as_array(v, "checks", path)?;
    let all_ok = checks.iter().all(|c| c.get("ok") == Some(&Value::Bool(true)));
    if pass && !all_ok {
        return Err(fail(path, "verdict passes but a check has ok=false"));
    }
    Ok(format!("printed-regression/v1: pass={pass}, {} checks", checks.len()))
}

fn boolean(v: &Value, key: &str, path: &str) -> Result<bool, Box<dyn std::error::Error>> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(fail(path, &format!("{key} missing or not a boolean"))),
    }
}

fn validate_diff_summary(v: &Value, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let rows = as_array(v, "rows", path)?;
    let (mut divergences, mut wrong_results) = (0usize, 0usize);
    for (i, row) in rows.iter().enumerate() {
        let at = format!("{path} row {i}");
        for key in ["kernel", "config"] {
            row.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| fail(&at, &format!("{key} missing or not a string")))?;
        }
        num(row, "steps", &at)?;
        num(row, "cycles", &at)?;
        boolean(row, "halted", &at)?;
        if !boolean(row, "result_ok", &at)? {
            wrong_results += 1;
        }
        match row.get("divergence") {
            Some(Value::Null) => {}
            Some(Value::String(_)) => divergences += 1,
            _ => return Err(fail(&at, "divergence missing or neither a string nor null")),
        }
    }
    let totals = v.get("totals").ok_or_else(|| fail(path, "missing totals"))?;
    for (key, counted) in
        [("rows", rows.len()), ("divergences", divergences), ("wrong_results", wrong_results)]
    {
        let total = num(totals, key, path)?;
        if total != counted as f64 {
            return Err(fail(path, &format!("totals.{key} is {total}, the rows hold {counted}")));
        }
    }
    Ok(format!(
        "printed-diff-summary/v1: {} rows, {divergences} divergences, {wrong_results} wrong results",
        rows.len()
    ))
}

fn validate_one(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let contents = std::fs::read_to_string(path).map_err(|e| fail(path, &e.to_string()))?;
    // JSONL perf ledgers are multi-document; sniff them first.
    if contents.lines().next().is_some_and(|l| l.contains("printed-bench-record/v1")) {
        let records =
            regression::parse_history(&contents).map_err(|e| fail(path, &e.to_string()))?;
        let dirty = records.iter().filter(|r| r.dirty).count();
        return Ok(format!(
            "printed-bench-record/v1 ledger: {} records ({dirty} from uncommitted trees)",
            records.len()
        ));
    }
    let v = json::parse(&contents).map_err(|e| fail(path, &e.to_string()))?;
    match v.get("schema").and_then(Value::as_str) {
        Some("printed-profile/v1") => validate_profile(&v, path),
        Some("printed-regression/v1") => validate_regression(&v, path),
        Some("printed-diff-summary/v1") => validate_diff_summary(&v, path),
        Some(other) => Err(fail(path, &format!("unknown schema {other:?}"))),
        None if v.get("traceEvents").is_some() => validate_chrome_trace(&v, path),
        None => Err(fail(path, "no schema field and not a chrome trace")),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        return Err("usage: validate_artifacts <artifact.json>...".into());
    }
    for path in &paths {
        let report = validate_one(path)?;
        println!("{path}: OK ({report})");
    }
    Ok(())
}
