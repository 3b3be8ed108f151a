//! Pricing: turn a [`ShopQuery`] into a fabrication quote.
//!
//! The pipeline is the `print_shop` example's, hardened for service
//! duty: assemble → specialize ([`CoreSpec::program_specific`]) →
//! generate with the DRC gate → constant-fold → optional TMR →
//! characterize + memory + battery, and optionally a supervised fault
//! campaign (cancellable, checkpointed) whose identity fingerprint
//! keys the content-addressed quote cache.
//!
//! Quote bytes are a **pure function of the query content**: fixed
//! field order, [`printed_obs::json::number`] float formatting, no
//! wall-clock anywhere. That is what makes "cache hits are
//! byte-identical to cold computes" a checkable invariant rather than
//! a hope.

use crate::error::ShopError;
use crate::proto::ShopQuery;
use printed_core::workload::ProgramWorkload;
use printed_core::{asm, generate_checked, CoreConfig, CoreSpec, Instruction, NarrowEncoding};
use printed_memory::Sram;
use printed_netlist::fault::{CampaignConfig, StuckAtSpace};
use printed_netlist::hash::fnv1a;
use printed_netlist::resilience::{campaign_identity, run_supervised_campaign, SupervisedRun};
use printed_netlist::{analysis, opt, tmr, Netlist};
use printed_obs::json;
use printed_pdk::battery::{Battery, PRINTED_BATTERIES};
use printed_pdk::Technology;
use std::path::Path;
use std::sync::atomic::AtomicBool;

/// Looks up a battery by its catalog name.
pub fn battery_by_name(name: &str) -> Option<&'static Battery> {
    PRINTED_BATTERIES.iter().find(|b| b.name == name)
}

/// A query compiled to hardware: the netlist to price and campaign on.
#[derive(Debug)]
pub struct BuiltCore {
    /// The (optimized, possibly TMR-hardened) netlist.
    pub netlist: Netlist,
    /// The spec the netlist and the encoding derive from.
    pub spec: CoreSpec,
    /// The assembled program.
    pub instructions: Vec<Instruction>,
    /// Gate count before constant folding (reported in the quote).
    pub raw_gates: usize,
    /// The target technology.
    pub tech: Technology,
}

/// Compiles a query into a [`BuiltCore`].
///
/// # Errors
///
/// Returns [`ShopError::Build`] on assembly errors, encoding overflow,
/// DRC failures, or TMR transform errors — all deterministic properties
/// of the query, so build failures are cached as typed errors upstream,
/// never retried.
pub fn build(query: &ShopQuery) -> Result<BuiltCore, ShopError> {
    let build_err = |message: String| ShopError::Build { message };
    let program = asm::assemble(&query.program).map_err(|e| build_err(format!("assembly: {e}")))?;
    let config = CoreConfig::new(query.pipeline, query.width, query.bars);
    let spec = if query.isa_subset {
        CoreSpec::program_specific(config, &program.instructions, &query.name)
    } else {
        CoreSpec::standard(config)
    };
    // Encoding must succeed before we bother printing the core.
    NarrowEncoding::new(spec.clone())
        .encode_program(&program.instructions)
        .map_err(|e| build_err(format!("encoding: {e}")))?;
    let tech = if query.tech == "cnt" { Technology::CntTft } else { Technology::Egfet };
    let raw = generate_checked(&spec, tech)
        .map_err(|report| build_err(format!("DRC: {}", report.render_text())))?;
    let raw_gates = raw.gate_count();
    let mut netlist = opt::optimize(&raw);
    if query.tmr {
        netlist = tmr(&netlist).map_err(|e| build_err(format!("TMR: {e}")))?;
    }
    Ok(BuiltCore { netlist, spec, instructions: program.instructions, raw_gates, tech })
}

/// The campaign workload for a built core.
///
/// # Errors
///
/// Returns [`ShopError::Build`] if the program does not encode (already
/// checked in [`build`], so only on internal inconsistency).
pub fn workload(built: &BuiltCore, dmem_words: usize) -> Result<ProgramWorkload, ShopError> {
    ProgramWorkload::for_spec(built.spec.clone(), &built.instructions, dmem_words)
        .map_err(|e| ShopError::Build { message: format!("workload encoding: {e}") })
}

/// The campaign config a query's [`crate::proto::CampaignRequest`]
/// denotes. It fixes the fault set only; every campaign runs on the
/// bitsliced engine, which cannot change results or fingerprints.
pub fn campaign_config(query: &ShopQuery) -> Option<CampaignConfig> {
    query.campaign.as_ref().map(|c| CampaignConfig {
        cycle_budget: c.cycle_budget,
        stuck_at: if c.stuck_at == 0 {
            StuckAtSpace::None
        } else {
            StuckAtSpace::Sampled(c.stuck_at)
        },
        seu_samples: c.seu_samples,
        seed: c.seed,
    })
}

/// The content key the quote cache files this query under.
///
/// For campaign queries this *is* the campaign identity fingerprint
/// (netlist structure + campaign parameters + golden observation —
/// stable across processes, thread counts and engines) folded with the
/// pricing context (technology, battery, duty, memory) that the
/// fingerprint deliberately does not cover. For
/// pricing-only queries it is the FNV of the content-canonical form.
///
/// # Errors
///
/// Propagates campaign-identity failures (golden run errors) as
/// [`ShopError::Build`].
pub fn content_key(query: &ShopQuery, built: &BuiltCore) -> Result<u64, ShopError> {
    let context = fnv1a(query.content_canonical().as_bytes());
    let Some(config) = campaign_config(query) else {
        return Ok(context);
    };
    let w = workload(built, query.dmem_words)?;
    let fingerprint = campaign_identity(&built.netlist, &w, &config)
        .map_err(|e| ShopError::Build { message: format!("campaign identity: {e}") })?;
    // FNV-fold the two 64-bit ids, mirroring the fingerprint's own
    // byte-mixing so unrelated (fingerprint, context) pairs spread.
    let mut mixed = [0u8; 16];
    mixed[..8].copy_from_slice(&fingerprint.to_le_bytes());
    mixed[8..].copy_from_slice(&context.to_le_bytes());
    Ok(fnv1a(&mixed))
}

/// A computed quote plus its campaign bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedQuote {
    /// The quote document — the bytes that get cached and served.
    pub json: String,
    /// Checkpoint slots resumed rather than re-simulated (envelope
    /// metadata — deliberately *not* part of the quote bytes).
    pub resumed_slots: usize,
    /// The campaign was cancelled (deadline or drain) before finishing.
    pub aborted: bool,
}

/// Prices a built core: characterization, memory, battery, and the
/// optional supervised fault campaign.
///
/// `cancel` aborts the campaign cooperatively (deadline watchdog or
/// graceful drain); an aborted run returns `aborted: true` with empty
/// quote bytes, leaving its checkpoint behind for the next attempt.
///
/// # Errors
///
/// Returns [`ShopError::Build`] for memory-geometry errors and
/// [`ShopError::Internal`] for campaign engine failures.
pub fn price(
    query: &ShopQuery,
    built: &BuiltCore,
    checkpoint_dir: Option<&Path>,
    threads: usize,
    cancel: Option<&AtomicBool>,
) -> Result<PricedQuote, ShopError> {
    let lib = built.tech.library();
    let ch = analysis::characterize(&built.netlist, lib);
    let rom_words = NarrowEncoding::new(built.spec.clone())
        .encode_program(&built.instructions)
        .map_err(|e| ShopError::Build { message: format!("encoding: {e}") })?;
    let dmem = Sram::new(built.tech, query.dmem_words, query.width)
        .map_err(|e| ShopError::Build { message: format!("dmem: {e}") })?;
    let battery = battery_by_name(&query.battery).ok_or_else(|| ShopError::BadRequest {
        message: format!("unknown battery {:?}", query.battery),
    })?;
    let lifetime = battery.lifetime(ch.power.total() + dmem.static_power(), query.duty);

    let mut resumed_slots = 0;
    let mut campaign_json = "null".to_string();
    if let Some(config) = campaign_config(query) {
        let w = workload(built, query.dmem_words)?;
        let run =
            run_supervised_campaign(&built.netlist, &w, &config, checkpoint_dir, threads, cancel)?;
        let done = match run {
            SupervisedRun::Complete(c) => c,
            SupervisedRun::Aborted { .. } => {
                return Ok(PricedQuote { json: String::new(), resumed_slots: 0, aborted: true });
            }
        };
        resumed_slots = done.stats.resumed_slots;
        let counts = done.result.counts();
        campaign_json = format!(
            "{{\"faults\":{},\"masked\":{},\"detected\":{},\"hang\":{},\"sdc\":{},\
             \"failed\":{},\"coverage\":{},\"fingerprint\":\"{:016x}\"}}",
            counts.total(),
            counts.masked,
            counts.detected,
            counts.hang,
            counts.sdc,
            counts.failed,
            json::number(counts.coverage()),
            done.fingerprint,
        );
    }

    let json = format!(
        "{{\"schema\":\"printed-quote/v1\",\"core\":{},\"config\":{},\"tech\":{},\
         \"isa_subset\":{},\"tmr\":{},\"gates\":{},\"dffs\":{},\"raw_gates\":{},\
         \"area_cm2\":{},\"fmax_hz\":{},\"power_mw\":{},\
         \"rom_words\":{},\"rom_bits\":{},\"dmem_words\":{},\"dmem_area_cm2\":{},\
         \"battery\":{},\"lifetime_hours\":{},\"campaign\":{}}}",
        json::escape(&built.spec.name()),
        json::escape(&CoreConfig::new(query.pipeline, query.width, query.bars).name()),
        json::escape(&query.tech),
        query.isa_subset,
        query.tmr,
        built.netlist.gate_count(),
        built.netlist.sequential_count(),
        built.raw_gates,
        json::number(ch.area.total.as_cm2()),
        json::number(ch.fmax.as_hertz()),
        json::number(ch.power.total().as_milliwatts()),
        rom_words.len(),
        built.spec.instruction_bits(),
        query.dmem_words,
        json::number(dmem.area().as_cm2()),
        json::escape(&query.battery),
        lifetime.map_or_else(|| "null".to_string(), |t| json::number(t.as_hours())),
        campaign_json,
    );
    Ok(PricedQuote { json, resumed_slots, aborted: false })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::proto::CampaignRequest;

    fn campaign_query() -> ShopQuery {
        ShopQuery {
            width: 4,
            dmem_words: 8,
            campaign: Some(CampaignRequest {
                seu_samples: 4,
                stuck_at: 4,
                cycle_budget: 500,
                seed: 3,
            }),
            ..ShopQuery::default()
        }
    }

    #[test]
    fn cache_content_keys_and_job_ids_are_pinned() {
        // Cached quotes on disk are filed under these keys: a change to
        // the hash or the canonical forms would orphan every entry.
        let plain = ShopQuery::default();
        let built = build(&plain).expect("default query builds");
        assert_eq!(plain.query_key(), 0x1256_6672_26ac_bde2);
        assert_eq!(content_key(&plain, &built).unwrap(), 0x1256_6672_26ac_bde2);
        let q = campaign_query();
        let built = build(&q).expect("campaign query builds");
        assert_eq!(q.query_key(), 0x9aee_5774_1947_929d);
        assert_eq!(content_key(&q, &built).unwrap(), 0xd136_ba4e_ce87_0755);
    }

    #[test]
    fn quotes_are_byte_deterministic_and_parse() {
        let q = ShopQuery::default();
        let built = build(&q).expect("default query builds");
        let a = price(&q, &built, None, 1, None).unwrap();
        let b = price(&q, &built, None, 2, None).unwrap();
        assert_eq!(a.json, b.json, "pricing is thread-count independent");
        let v = json::parse(&a.json).expect("quote parses");
        assert_eq!(v.get("schema").and_then(json::Value::as_str), Some("printed-quote/v1"));
        assert!(v.get("gates").and_then(json::Value::as_f64).unwrap() > 0.0);
        assert_eq!(v.get("campaign"), Some(&json::Value::Null));
    }

    #[test]
    fn campaign_quotes_report_classified_faults() {
        let q = campaign_query();
        let built = build(&q).expect("campaign query builds");
        let priced = price(&q, &built, None, 2, None).unwrap();
        let v = json::parse(&priced.json).unwrap();
        let identity = campaign_identity(
            &built.netlist,
            &workload(&built, q.dmem_words).unwrap(),
            &campaign_config(&q).unwrap(),
        )
        .unwrap();
        let fingerprint = v.get("campaign").and_then(|c| c.get("fingerprint"));
        assert_eq!(fingerprint.and_then(json::Value::as_str), Some(&*format!("{identity:016x}")));
        let faults =
            v.get("campaign").and_then(|c| c.get("faults")).and_then(json::Value::as_f64).unwrap();
        assert_eq!(faults as usize, 8, "4 sampled stuck-at + 4 SEU");
    }

    #[test]
    fn content_keys_separate_pricing_context_from_campaign_identity() {
        let q = campaign_query();
        let built = build(&q).expect("builds");
        let base = content_key(&q, &built).unwrap();
        assert_eq!(base, content_key(&q, &built).unwrap(), "stable across recomputation");
        // Same campaign, different battery: same fingerprint, different
        // quote content — the key must differ.
        let other = ShopQuery { battery: "Molex 90 mAh".to_string(), ..campaign_query() };
        assert_ne!(base, content_key(&other, &built).unwrap());
        // Chaos hooks never reach the content key.
        let slow = ShopQuery { chaos_slow_ms: 100, ..campaign_query() };
        assert_eq!(base, content_key(&slow, &built).unwrap());
    }

    #[test]
    fn cancelled_campaign_prices_as_aborted_not_error() {
        let q = campaign_query();
        let built = build(&q).expect("builds");
        let cancel = AtomicBool::new(true);
        let priced = price(&q, &built, None, 1, Some(&cancel)).unwrap();
        assert!(priced.aborted);
        assert!(priced.json.is_empty());
    }

    #[test]
    fn bad_programs_are_typed_build_errors() {
        let q = ShopQuery { program: "FROB [0], #1\nHALT\n".to_string(), ..ShopQuery::default() };
        match build(&q) {
            Err(ShopError::Build { message }) => {
                assert!(message.contains("assembly"), "{message}");
            }
            other => panic!("expected Build error, got {other:?}"),
        }
    }
}
