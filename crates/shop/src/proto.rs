//! The wire protocol: line-delimited JSON requests and the canonical
//! query form.
//!
//! A request is one JSON object per line: `{"op":"quote","query":{…}}`,
//! `{"op":"stats"}`, `{"op":"shutdown"}`, or
//! `{"op":"chaos","action":"kill_worker"}`. A successful `quote`
//! response is **two** lines — an envelope (`ok`, `served`,
//! `fingerprint`, `resumed_slots`, `wall_ms`) followed by the raw quote
//! bytes, exactly as cached, so clients byte-compare quotes without
//! re-serializing. Every other response is a single envelope line.
//!
//! [`ShopQuery::canonical`] renders a query with every field in a fixed
//! order and defaults filled in, so two requests meaning the same thing
//! are the same bytes; [`ShopQuery::query_key`] hashes that form into
//! the 64-bit id the queue dedups, the journal records, and the logs
//! name jobs by.

use crate::error::ShopError;
use printed_netlist::snapshot::fnv1a;
use printed_obs::json::{self, Value};

/// Campaign parameters of a query (all optional on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Monte-Carlo SEU samples (0 disables SEU injection).
    pub seu_samples: usize,
    /// Sampled stuck-at fault count (0 disables stuck-at injection).
    pub stuck_at: usize,
    /// Per-run simulator cycle cap.
    pub cycle_budget: u64,
    /// Seed for all sampled fault selection.
    pub seed: u64,
}

/// One priced design-space query: the paper's Table 5 axes plus the
/// fault-campaign knobs and the chaos-injection test hooks.
#[derive(Debug, Clone, PartialEq)]
pub struct ShopQuery {
    /// TP-ISA assembly source of the customer program.
    pub program: String,
    /// Core name stem for program-specific specialization.
    pub name: String,
    /// Datawidth in bits (2–64).
    pub width: usize,
    /// Pipeline depth (1–3).
    pub pipeline: usize,
    /// Base-address-register count (power of two, 1–8).
    pub bars: u8,
    /// Specialize the ISA to the program (Section 7) instead of
    /// printing the standard core.
    pub isa_subset: bool,
    /// Harden with triple modular redundancy.
    pub tmr: bool,
    /// Target technology: `"egfet"` or `"cnt"`.
    pub tech: String,
    /// Data-memory words to print.
    pub dmem_words: usize,
    /// Battery name from the printed-battery catalog.
    pub battery: String,
    /// Active duty fraction for the lifetime estimate.
    pub duty: f64,
    /// Fault-campaign request; `None` prices geometry/power only.
    pub campaign: Option<CampaignRequest>,
    /// Chaos hook: hold the job on a worker for this many milliseconds
    /// before pricing (models a slow job; cancellable).
    pub chaos_slow_ms: u64,
    /// Chaos hook: panic on this many attempts before succeeding
    /// (exercises retry/poison isolation).
    pub chaos_panics: u32,
}

/// The default customer program: debounce a door sensor and count
/// openings — the same story `examples/print_shop.rs` has always told.
pub const DEFAULT_PROGRAM: &str = "\
    STORE [3], #1\n\
    STORE [1], #0\n\
    STORE [2], #0\n\
    TEST  [0], [3]\n\
    ADD   [1], [3]\n\
    ADD   [2], [3]\n\
    STORE [1], #0\n\
    HALT\n";

impl Default for ShopQuery {
    fn default() -> Self {
        ShopQuery {
            program: DEFAULT_PROGRAM.to_string(),
            name: "door_counter".to_string(),
            width: 8,
            pipeline: 1,
            bars: 2,
            isa_subset: true,
            tmr: false,
            tech: "egfet".to_string(),
            dmem_words: 16,
            battery: "Blue Spark 30 mAh".to_string(),
            duty: 1.0,
            campaign: None,
            chaos_slow_ms: 0,
            chaos_panics: 0,
        }
    }
}

impl ShopQuery {
    /// Parses the `query` object of a `quote` request, filling defaults
    /// and validating ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::BadRequest`] for non-object input, unknown
    /// technologies/batteries, or design-point values outside the
    /// paper's ranges (so [`printed_core::CoreConfig::new`] can never
    /// panic on wire input).
    pub fn from_value(v: &Value) -> Result<Self, ShopError> {
        let Value::Object(_) = v else {
            return Err(ShopError::BadRequest { message: "query must be an object".into() });
        };
        let mut q = ShopQuery::default();
        if let Some(p) = v.get("program").and_then(Value::as_str) {
            q.program = p.to_string();
        }
        if let Some(n) = v.get("name").and_then(Value::as_str) {
            if n.is_empty() || !n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(ShopError::BadRequest {
                    message: format!("name {n:?} must be a nonempty [A-Za-z0-9_]+ identifier"),
                });
            }
            q.name = n.to_string();
        }
        if let Some(w) = v.get("width").and_then(Value::as_f64) {
            q.width = w as usize;
        }
        if let Some(p) = v.get("pipeline").and_then(Value::as_f64) {
            q.pipeline = p as usize;
        }
        if let Some(b) = v.get("bars").and_then(Value::as_f64) {
            q.bars = b as u8;
        }
        if let Some(Value::Bool(s)) = v.get("isa_subset") {
            q.isa_subset = *s;
        }
        if let Some(Value::Bool(t)) = v.get("tmr") {
            q.tmr = *t;
        }
        if let Some(t) = v.get("tech").and_then(Value::as_str) {
            q.tech = t.to_string();
        }
        if let Some(d) = v.get("dmem_words").and_then(Value::as_f64) {
            q.dmem_words = d as usize;
        }
        if let Some(b) = v.get("battery").and_then(Value::as_str) {
            q.battery = b.to_string();
        }
        if let Some(d) = v.get("duty").and_then(Value::as_f64) {
            q.duty = d;
        }
        let seu = v.get("seu_samples").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let stuck = v.get("stuck_at").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        if seu > 0 || stuck > 0 {
            q.campaign = Some(CampaignRequest {
                seu_samples: seu,
                stuck_at: stuck,
                cycle_budget: v.get("cycle_budget").and_then(Value::as_f64).unwrap_or(1000.0)
                    as u64,
                seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            });
        }
        if let Some(ms) = v.get("chaos_slow_ms").and_then(Value::as_f64) {
            q.chaos_slow_ms = ms as u64;
        }
        if let Some(n) = v.get("chaos_panics").and_then(Value::as_f64) {
            q.chaos_panics = n as u32;
        }
        q.validate()?;
        Ok(q)
    }

    /// Range-checks the design point and catalog names.
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::BadRequest`] naming the offending field.
    pub fn validate(&self) -> Result<(), ShopError> {
        let bad = |message: String| Err(ShopError::BadRequest { message });
        if !(2..=64).contains(&self.width) {
            return bad(format!("width {} outside 2..=64", self.width));
        }
        if !(1..=3).contains(&self.pipeline) {
            return bad(format!("pipeline {} outside 1..=3", self.pipeline));
        }
        if !self.bars.is_power_of_two() || !(1..=8).contains(&self.bars) {
            return bad(format!("bars {} not a power of two in 1..=8", self.bars));
        }
        if self.tech != "egfet" && self.tech != "cnt" {
            return bad(format!("tech {:?} is not \"egfet\" or \"cnt\"", self.tech));
        }
        if self.dmem_words == 0 || self.dmem_words > 4096 {
            return bad(format!("dmem_words {} outside 1..=4096", self.dmem_words));
        }
        if !(0.0..=1.0).contains(&self.duty) {
            return bad(format!("duty {} outside 0.0..=1.0", self.duty));
        }
        if crate::quote::battery_by_name(&self.battery).is_none() {
            return bad(format!("unknown battery {:?}", self.battery));
        }
        if self.program.len() > 64 * 1024 {
            return bad("program source over 64 KiB".to_string());
        }
        Ok(())
    }

    /// The canonical byte form: every field, fixed order, defaults
    /// filled. Equal queries canonicalize identically regardless of
    /// field order or omissions on the wire.
    pub fn canonical(&self) -> String {
        let c = self.campaign.clone().unwrap_or(CampaignRequest {
            seu_samples: 0,
            stuck_at: 0,
            cycle_budget: 0,
            seed: 0,
        });
        format!(
            "{{\"program\":{},\"name\":{},\"width\":{},\"pipeline\":{},\"bars\":{},\
             \"isa_subset\":{},\"tmr\":{},\"tech\":{},\"dmem_words\":{},\"battery\":{},\
             \"duty\":{},\"seu_samples\":{},\"stuck_at\":{},\"cycle_budget\":{},\"seed\":{},\
             \"chaos_slow_ms\":{},\"chaos_panics\":{}}}",
            json::escape(&self.program),
            json::escape(&self.name),
            self.width,
            self.pipeline,
            self.bars,
            self.isa_subset,
            self.tmr,
            json::escape(&self.tech),
            self.dmem_words,
            json::escape(&self.battery),
            json::number(self.duty),
            c.seu_samples,
            c.stuck_at,
            c.cycle_budget,
            c.seed,
            self.chaos_slow_ms,
            self.chaos_panics,
        )
    }

    /// The canonical form *minus the chaos hooks* — what the quote's
    /// content actually depends on. Two queries differing only in
    /// injected slowness or panics price identically and share a cache
    /// entry.
    pub fn content_canonical(&self) -> String {
        let mut stripped = self.clone();
        stripped.chaos_slow_ms = 0;
        stripped.chaos_panics = 0;
        stripped.canonical()
    }

    /// FNV-1a 64 of [`ShopQuery::canonical`] — the dedup/journal job id.
    pub fn query_key(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Price a query.
    Quote(Box<ShopQuery>),
    /// Service counters + manifest.
    Stats,
    /// Graceful drain-to-checkpoints shutdown.
    Shutdown,
    /// Chaos drill: kill one worker thread (the supervisor respawns it).
    ChaosKillWorker,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ShopError::BadRequest`] on malformed JSON, a missing or
/// unknown `op`, or an invalid query.
pub fn parse_request(line: &str) -> Result<Request, ShopError> {
    let v = json::parse(line)
        .map_err(|e| ShopError::BadRequest { message: format!("request is not JSON: {e}") })?;
    let op = v.get("op").and_then(Value::as_str).unwrap_or("");
    match op {
        "quote" => {
            let query = v
                .get("query")
                .ok_or_else(|| ShopError::BadRequest { message: "missing query object".into() })?;
            Ok(Request::Quote(Box::new(ShopQuery::from_value(query)?)))
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "chaos" => match v.get("action").and_then(Value::as_str) {
            Some("kill_worker") => Ok(Request::ChaosKillWorker),
            other => {
                Err(ShopError::BadRequest { message: format!("unknown chaos action {other:?}") })
            }
        },
        other => Err(ShopError::BadRequest { message: format!("unknown op {other:?}") }),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_order_and_default_insensitive() {
        let a = parse_request(r#"{"op":"quote","query":{"width":4,"tmr":true}}"#).unwrap();
        let b =
            parse_request(r#"{"op":"quote","query":{"tmr":true,"width":4,"duty":1.0}}"#).unwrap();
        let (Request::Quote(qa), Request::Quote(qb)) = (a, b) else { panic!("quote ops") };
        assert_eq!(qa.canonical(), qb.canonical());
        assert_eq!(qa.query_key(), qb.query_key());
    }

    #[test]
    fn chaos_hooks_change_the_job_id_but_not_the_content_id() {
        let plain = ShopQuery::default();
        let slow = ShopQuery { chaos_slow_ms: 250, ..ShopQuery::default() };
        assert_ne!(plain.query_key(), slow.query_key(), "distinct jobs in the queue");
        assert_eq!(plain.content_canonical(), slow.content_canonical(), "identical priced content");
    }

    #[test]
    fn out_of_range_design_points_are_typed_bad_requests() {
        for bad in [
            r#"{"op":"quote","query":{"width":65}}"#,
            r#"{"op":"quote","query":{"pipeline":4}}"#,
            r#"{"op":"quote","query":{"bars":3}}"#,
            r#"{"op":"quote","query":{"tech":"cmos"}}"#,
            r#"{"op":"quote","query":{"battery":"AA"}}"#,
            r#"{"op":"quote","query":{"duty":2.0}}"#,
            r#"{"op":"not_an_op"}"#,
            "not json",
            // 100k openers must not overflow the parser's stack, which
            // would abort the whole service.
            &"[".repeat(100_000),
            &format!(r#"{{"op":"quote","query":{}"#, "[".repeat(100_000)),
        ] {
            match parse_request(bad) {
                Err(ShopError::BadRequest { .. }) => {}
                other => panic!("{bad}: expected BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn campaign_fields_round_trip() {
        let r = parse_request(
            r#"{"op":"quote","query":{"seu_samples":12,"stuck_at":6,"cycle_budget":500,"seed":7}}"#,
        )
        .unwrap();
        let Request::Quote(q) = r else { panic!("quote op") };
        let c = q.campaign.expect("campaign requested");
        assert_eq!((c.seu_samples, c.stuck_at, c.cycle_budget, c.seed), (12, 6, 500, 7));
    }
}
