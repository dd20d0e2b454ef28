//! The outside-in stage ledger of a traced run: after the traced
//! repetition, the harness calls each layer's public functions on the
//! repetition's own data, one span per call, and sets the pieces against
//! the repetition's wall time. What the pieces do not cover is reported as
//! `shard.*_unattributed_s` — the engine has no spans of its own yet.

use std::path::Path;
use std::time::{Duration, Instant};

use measure::checkpoint::fnv64;
use measure::shard::{CAMPAIGN_FILE, MANIFEST_FILE};
use measure::{
    json, metrics_of, Campaign, CampaignAggregates, CampaignConfig, Manifest, ProbeRecord,
    Protocol, ShardedRunner,
};

use crate::metrics::{Values, PER_LAYER};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workload::{
    attempt_facts, health_fold, Kind, Repetition, Scratch, ScratchDir, Workload, SHARDS,
};

/// Rounds of the per-protocol generation probes: 31 920 probes each.
const PROTOCOL_ROUNDS: u32 = 20;

type Facts = Vec<(&'static str, f64)>;

/// Runs the ledger probes for `w` after its traced repetition `traced`
/// and returns the exact counts they saw. Times stay in `tracer`.
pub fn probe_layers(
    w: &Workload,
    campaign: &Campaign,
    seed: u64,
    scratch: &Scratch,
    traced: &Repetition,
    tracer: &mut Tracer,
) -> Result<Facts, String> {
    let mut facts = Facts::new();
    let ledger_dir = ScratchDir::create(scratch.run.join("ledger"))?;
    // Where the traced repetition left its output.
    let run_dir = match (w.kind, &traced.dir, scratch.complete) {
        (Kind::InMemory, ..) => scratch.run,
        (Kind::ShardedFresh, Some(own), _) => own.path(),
        (Kind::ShardedResume, _, Some(complete)) => complete,
        _ => return Err("the traced repetition kept no directory".to_string()),
    };
    let output = read_output(&run_dir.join(CAMPAIGN_FILE), traced, tracer, &mut facts)?;

    match w.kind {
        Kind::InMemory => {
            if w.name == "inmemory_quick" {
                protocol_probes(seed, tracer, &mut facts)?;
            }
        }
        Kind::ShardedFresh => {
            // What `run(1)` pays before its first shard: `load_or_init`
            // on an empty directory.
            let fresh = ShardedRunner::new(campaign, SHARDS, ledger_dir.path().join("fresh"))
                .map_err(|e| e.to_string())?;
            tracer
                .span("shard.validate", || fresh.load_or_init())
                .map_err(|e| e.to_string())?;
            // Assembly alone: a second run on the completed directory,
            // less the validation a fresh run does not do.
            let again = ShardedRunner::new(campaign, SHARDS, run_dir).map_err(|e| e.to_string())?;
            tracer
                .span("shard.revalidate", || again.load_or_init())
                .map_err(|e| e.to_string())?;
            tracer
                .span("shard.resume_run", || again.run(1))
                .map_err(|e| e.to_string())?;

            let generated = tracer.span("campaign.generate", || campaign.generate(1));
            facts.push(("campaign.generate_probes", generated.record_count() as f64));
            let result = tracer.span("campaign.merge", || campaign.assemble(generated));
            let records = &result.records;
            tracer.span("aggregate.fold", || {
                std::hint::black_box(CampaignAggregates::of(campaign, records));
            });
            tracer.span("health.fold", || {
                std::hint::black_box(health_fold(campaign, records));
            });
            let jsonl = tracer.span("results.write_json", || result.to_json_lines());
            facts.push(("results.write_json_mb", jsonl.len() as f64 / 1e6));
            if jsonl.as_bytes() != output {
                return Err("one-shot serialisation differs from the assembled shards".to_string());
            }
            read_side_probes(&output, ledger_dir.path(), tracer, &mut facts)?;
            manifest_probes(run_dir, ledger_dir.path(), true, tracer, &mut facts)?;
        }
        Kind::ShardedResume => {
            let runner =
                ShardedRunner::new(campaign, SHARDS, run_dir).map_err(|e| e.to_string())?;
            tracer
                .span("shard.validate", || runner.load_or_init())
                .map_err(|e| e.to_string())?;
            read_side_probes(&output, ledger_dir.path(), tracer, &mut facts)?;
            manifest_probes(run_dir, ledger_dir.path(), false, tracer, &mut facts)?;
        }
    }
    Ok(facts)
}

/// What assembly does with the shards' bytes, piece by piece: parse every
/// line back into a record, fold the records into metrics, write the
/// bytes out again.
fn read_side_probes(
    output: &[u8],
    ledger_dir: &Path,
    tracer: &mut Tracer,
    facts: &mut Facts,
) -> Result<(), String> {
    let jsonl = std::str::from_utf8(output).map_err(|e| e.to_string())?;
    let parsed = parse_probe(jsonl, tracer)?;
    let (per_probe, failed_share) = attempt_facts(&parsed);
    facts.push(("probe.attempts_per_probe", per_probe));
    facts.push(("probe.failed_probe_share", failed_share));
    tracer.span("campaign.metrics", || {
        std::hint::black_box(metrics_of(&parsed))
    });
    let path = ledger_dir.join("write-probe.jsonl");
    tracer
        .span("fs.write", || std::fs::write(&path, output))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    facts.push(("fs.mb", output.len() as f64 / 1e6));
    Ok(())
}

/// `fs.read` of the repetition's output and the engine's `fnv64` over it,
/// which must agree with the streamed hash the repetition's check took.
fn read_output(
    path: &Path,
    traced: &Repetition,
    tracer: &mut Tracer,
    facts: &mut Facts,
) -> Result<Vec<u8>, String> {
    let bytes = tracer
        .span("fs.read", || std::fs::read(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let sum = tracer.span("checkpoint.fnv64", || fnv64(&bytes));
    if (sum, bytes.len() as u64) != (traced.identity.output_fnv64, traced.identity.output_bytes) {
        return Err(format!(
            "{} changed after its repetition was checked",
            path.display()
        ));
    }
    facts.push(("checkpoint.fnv64_mb", bytes.len() as f64 / 1e6));
    Ok(bytes)
}

/// `json::parse` then `ProbeRecord::from_json` over every output line,
/// one line at a time with the tree dropped before the next — what the
/// shard assembler does to recover each line's merge key. The two are
/// timed per line and recorded as two spans laid end to end; the tree's
/// drop is the parser's cost and is timed with it.
fn parse_probe(jsonl: &str, tracer: &mut Tracer) -> Result<Vec<ProbeRecord>, String> {
    let mut records = Vec::new();
    let (mut parse, mut from_json) = (Duration::ZERO, Duration::ZERO);
    tracer.enter("ledger.parse_lines");
    for line in jsonl.lines() {
        let t0 = Instant::now();
        let tree = json::parse(line);
        let t1 = Instant::now();
        let record = tree.as_ref().ok().and_then(ProbeRecord::from_json);
        let t2 = Instant::now();
        drop(tree);
        parse += (t1 - t0) + t2.elapsed();
        from_json += t2 - t1;
        records.extend(record);
    }
    tracer.children(&[("json.parse", parse), ("results.from_json", from_json)]);
    tracer.exit("ledger.parse_lines");
    if records.len() != jsonl.lines().count() {
        return Err("an output line is not a probe record".to_string());
    }
    Ok(records)
}

/// The manifest the run left: decode always; for a run that wrote it
/// (`wrote`), also encode, store, and a replay of its commits — manifests
/// with shards `0..=k` complete, `encode().len()` + `store()` exactly as
/// `commit_shard` does after each shard.
fn manifest_probes(
    run_dir: &Path,
    ledger_dir: &Path,
    wrote: bool,
    tracer: &mut Tracer,
    facts: &mut Facts,
) -> Result<(), String> {
    let path = run_dir.join(MANIFEST_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    facts.push(("checkpoint.manifest_bytes", text.len() as f64));
    let manifest = tracer
        .span("checkpoint.manifest_decode", || Manifest::decode(&text))
        .map_err(|e| e.to_string())?;
    if !wrote {
        return Ok(());
    }
    let encoded = tracer.span("checkpoint.manifest_encode", || manifest.encode());
    if encoded != text {
        return Err("re-encoding the final manifest changes it".to_string());
    }
    let store_path = ledger_dir.join("manifest-probe.ckpt");
    tracer
        .span("checkpoint.manifest_store", || manifest.store(&store_path))
        .map_err(|e| e.to_string())?;

    let shards = manifest.states.len() as u32;
    let mut replay = Manifest::new(manifest.fingerprint, manifest.seed, shards, manifest.pairs);
    let mut commit_bytes = 0u64;
    for (k, state) in manifest.states.into_iter().enumerate() {
        replay.states[k] = state;
        tracer
            .span("checkpoint.commit_replay", || {
                commit_bytes += replay.encode().len() as u64;
                replay.store(&store_path)
            })
            .map_err(|e| e.to_string())?;
    }
    facts.push(("checkpoint.commit_bytes", commit_bytes as f64));
    Ok(())
}

/// µs per generated probe for each protocol, same seed and schedule. The
/// end-to-end workloads are all DoH, so a per-protocol change shows here
/// or nowhere.
fn protocol_probes(seed: u64, tracer: &mut Tracer, facts: &mut Facts) -> Result<(), String> {
    for (protocol, span, metric) in [
        (Protocol::DoH, "probe.doh", "probe.doh_us"),
        (Protocol::DoT, "probe.dot", "probe.dot_us"),
        (Protocol::Do53, "probe.do53", "probe.do53_us"),
        (Protocol::DoQ, "probe.doq", "probe.doq_us"),
        (Protocol::ODoH, "probe.odoh", "probe.odoh_us"),
    ] {
        let mut config = CampaignConfig::quick(seed, PROTOCOL_ROUNDS);
        config.probe.protocol = protocol;
        let campaign = Campaign::try_new(config)?;
        tracer.enter(span);
        let generated = campaign.generate(1);
        let seconds = tracer.exit(span);
        facts.push((metric, seconds * 1e6 / generated.record_count() as f64));
    }
    Ok(())
}

fn spent(v: &Values, names: &[&str]) -> f64 {
    names.iter().map(|name| v.get(name)).sum()
}

/// The per-layer table of a traced run: span totals by name, the exact
/// counts, and the figures derived from them.
pub fn layer_values(
    kind: Kind,
    tracer: &Tracer,
    traced: &Repetition,
    ledger_facts: Facts,
    untraced: &Summary,
    traced_all: &Summary,
) -> Result<Values, String> {
    let mut v = Values::default();
    for def in PER_LAYER {
        if let Some(span) = def.name.strip_suffix("_s") {
            v.set(def.name, tracer.total_s(span));
        }
    }
    for &(name, value) in traced.facts.iter().chain(&ledger_facts) {
        v.set(name, value);
    }
    v.set(
        "trace.overhead_share",
        (traced_all.median - untraced.median) / untraced.median,
    );
    v.set("rep.spread_share", untraced.spread_share());
    if kind == Kind::InMemory {
        return Ok(v);
    }

    let run = traced.seconds;
    let validate = v.get("shard.validate_s");
    let assemble = match kind {
        Kind::ShardedFresh => {
            tracer.total_s("shard.resume_run") - tracer.total_s("shard.revalidate")
        }
        _ => run - validate,
    };
    let execute = run - validate - assemble;
    v.set("shard.run_s", run);
    v.set("shard.assemble_s", assemble);
    v.set("shard.execute_s", execute);
    let assemble_known = spent(
        &v,
        &[
            "fs.read_s",
            "json.parse_s",
            "results.from_json_s",
            "campaign.metrics_s",
            "fs.write_s",
        ],
    );
    v.set("shard.assemble_unattributed_s", assemble - assemble_known);
    if kind == Kind::ShardedFresh {
        let execute_known = spent(
            &v,
            &[
                "campaign.generate_s",
                "campaign.merge_s",
                "aggregate.fold_s",
                "health.fold_s",
                "results.write_json_s",
                "checkpoint.fnv64_s",
                "fs.write_s",
                "checkpoint.commit_replay_s",
            ],
        );
        v.set("shard.execute_unattributed_s", execute - execute_known);
        if v.get("shard.checkpoint_bytes") != v.get("checkpoint.commit_bytes") {
            return Err(format!(
                "the engine counted {} checkpoint bytes, the commit replay wrote {}",
                v.get("shard.checkpoint_bytes"),
                v.get("checkpoint.commit_bytes")
            ));
        }
    }
    Ok(v)
}
