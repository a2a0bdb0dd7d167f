//! `repro` — every table and figure of the paper's evaluation (§6): one
//! function per experiment behind one argument parser. Output is
//! deterministic, so two runs diff clean.
//!
//! Run with: `cargo run --release --offline -p intellog-bench --bin repro -- <name> [jobs]`

use anomaly::Anomaly;
use baselines::{DeepLog, LogCluster, S3Graph};
use dlasim::{FaultKind, FaultPlan, JobConfig, SystemKind, WorkloadGen};
use extract::{FieldCategory, IntelExtractor};
use intellog_bench::{
    evaluate, intel_messages, score, table6_jobs, train_keyseqs, training_jobs, training_sessions,
    Confusion, FieldCounts, IntelLogTool, KeySeqTool, SemVecTool, SessionDetector,
};
use intellog_core::{sessions_from_job, IntelLog};
use lognlp::{is_natural_language, tag, tag_key_with_sample, tokenize};
use spell::SpellParser;

/// Name, default `[jobs]` (generated jobs per system; 0 where the experiment
/// has no corpus to size and ignores the argument) and the function.
type Experiment = (&'static str, usize, fn(usize));

const EXPERIMENTS: [Experiment; 10] = [
    ("table1", 60, table1),
    ("table4", 30, table4),
    ("table5", 20, table5),
    ("table6", 20, table6),
    ("table7", 20, table7),
    ("table8", 20, table8),
    ("figure1", 0, figure1),
    ("figure34", 0, figure34),
    ("figure8", 12, figure8),
    ("figure9", 12, figure9),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args
        .first()
        .and_then(|name| EXPERIMENTS.iter().find(|e| e.0 == name));
    match (experiment, args.get(1).map(|a| a.parse()), args.len()) {
        (Some((_, default, run)), None, 1) => run(*default),
        (Some((_, _, run)), Some(Ok(jobs)), 2) => run(jobs),
        _ => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!("usage: repro <{}> [jobs]", names.join("|"));
            std::process::exit(2);
        }
    }
}

/// Table 1 — lines and percentages of natural-language logs.
///
/// Paper: Spark 100%, MapReduce 91.8%, Tez 92.2%, Yarn 97.6%,
/// nova-compute 100% (nova after excluding periodic resource reports).
fn table1(jobs: usize) {
    println!("Table 1: lines and percentages of natural language logs");
    println!("({jobs} generated jobs per analytics system)\n");
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "System", "NL logs", "total logs", "% NL"
    );

    let infrastructure = [SystemKind::Yarn, SystemKind::Nova];
    for system in SystemKind::ANALYTICS.into_iter().chain(infrastructure) {
        let mut gen = WorkloadGen::new(1000 + system as u64, 8);
        let n_jobs = if infrastructure.contains(&system) {
            jobs * 4
        } else {
            jobs
        };
        let (mut nl, mut total) = (0u64, 0u64);
        for _ in 0..n_jobs {
            let cfg = gen.training_config(system);
            let job = dlasim::generate(&cfg, None);
            for session in &job.sessions {
                for line in &session.lines {
                    total += 1;
                    if is_natural_language(&line.message) {
                        nl += 1;
                    }
                }
            }
        }
        println!(
            "{:<14} {:>10} {:>12} {:>9.1}%",
            system.name(),
            nl,
            total,
            100.0 * nl as f64 / total.max(1) as f64
        );
    }
    println!("\npaper: Spark 100%, MapReduce 91.8%, Tez 92.2%, Yarn 97.6%, nova-compute 100%");
}

/// Table 4 — accuracy of information extraction in the evaluated systems.
///
/// Ground truth comes from the simulator's template catalog (standing in
/// for the paper's manual source-code inspection). Reported per system:
/// messages consumed, number of Intel Keys, and Total/FP/FN per field.
fn table4(jobs: usize) {
    println!("Table 4: accuracy of information extraction ({jobs} jobs per system)\n");
    println!(
        "{:<11} {:>9} {:>6}  {:>13} {:>13} {:>13} {:>13} {:>13}",
        "Framework",
        "consumed",
        "keys",
        "Entities",
        "Identifiers",
        "Values",
        "Locations",
        "Operations"
    );
    println!(
        "{:<11} {:>9} {:>6}  {:>13} {:>13} {:>13} {:>13} {:>13}",
        "", "", "", "(Tot/FP/FN)", "(Tot/FP/FN)", "(Tot/FP/FN)", "(Tot/FP/FN)", "(Tot/Missed)"
    );

    let cell = |c: &FieldCounts| format!("{}/{}/{}", c.total, c.fp, c.fn_);
    let mut totals = (0usize, 0usize, 0usize); // entity tot/fp/fn across systems
    for system in SystemKind::EVALUATED {
        let corpus = training_jobs(system, jobs, 40 + system as u64);
        let row = evaluate(system, &corpus);
        println!(
            "{:<11} {:>9} {:>6}  {:>13} {:>13} {:>13} {:>13} {:>13}",
            row.system,
            row.consumed,
            row.keys,
            cell(&row.entities),
            cell(&row.identifiers),
            cell(&row.values),
            cell(&row.localities),
            format!("{}/{}", row.operations_total, row.operations_missed),
        );
        totals.0 += row.entities.total;
        totals.1 += row.entities.fp;
        totals.2 += row.entities.fn_;
    }
    let correct = totals.0 - totals.2;
    println!(
        "\noverall entity precision {:.1}%  recall {:.1}%",
        100.0 * correct as f64 / (correct + totals.1).max(1) as f64,
        100.0 * correct as f64 / totals.0.max(1) as f64
    );
    println!("paper (for scale): Spark 60 keys, entities 63/3/0; MapReduce 44 keys, 43/9/2; Tez 43 keys, 101/2/3");
}

/// Table 5 — log and HW-graph statistics for the evaluated systems.
///
/// Paper shape: entity groups are 5–10× fewer than the messages of one
/// session (critical groups 10–50× fewer); subroutines are short enough for
/// manual analysis (max ≈ 10–19 keys).
fn table5(jobs: usize) {
    println!("Table 5: log and HW-graph statistics ({jobs} training jobs per system)\n");
    println!(
        "{:<11} {:>12} {:>16} {:>30}",
        "Framework", "session len", "groups all/crit", "subroutine max/avg/avg-crit"
    );
    for system in SystemKind::EVALUATED {
        let sessions = training_sessions(system, jobs, 70 + system as u64);
        let il = IntelLog::train(&sessions);
        let s = &il.graph().stats;
        println!(
            "{:<11} {:>12.0} {:>16} {:>30}",
            system.name(),
            s.avg_session_len,
            format!("{} / {}", s.groups_all, s.groups_critical),
            format!(
                "{} / {:.1} / {:.1}",
                s.sub_len_max, s.sub_len_avg_all, s.sub_len_avg_crit
            ),
        );
    }
    println!("\npaper: Spark 347, 45/10, 10/1.2/2.3 | MapReduce 137, 35/13, 19/1.7/2.8 | Tez 304, 59/27, 14/2.7/4.6");
}

/// `min~max` of a non-empty series.
fn range(values: impl Iterator<Item = usize> + Clone) -> String {
    let (min, max) = (values.clone().min(), values.max());
    format!("{}~{}", min.unwrap_or(0), max.unwrap_or(0))
}

/// Table 6 — accuracy of anomaly detection by IntelLog.
///
/// Protocol (§6.4): per system, five configuration sets × (three injected
/// problems + three no-problem jobs) = 30 jobs, 15 with problems; faults
/// trigger at random points. Reported: session count range, session length
/// range, D / FP / FN / (P/B).
fn table6(train_jobs: usize) {
    println!("Table 6: anomaly detection accuracy ({train_jobs} training jobs per system)\n");
    println!(
        "{:<11} {:>12} {:>16} {:>20}",
        "Framework", "sessions", "session length", "D / FP / FN / (P/B)"
    );

    let mut total = Confusion::default();
    let mut tool = IntelLogTool::default();
    for system in SystemKind::ANALYTICS {
        tool.fit(
            system,
            &training_jobs(system, train_jobs, 100 + system as u64),
        );
        let eval = table6_jobs(system, 200 + system as u64);
        let sessions = eval.iter().flat_map(|j| &j.job.sessions);
        let (_, found) = score(&tool, &eval);
        println!(
            "{:<11} {:>12} {:>16} {:>20}",
            system.name(),
            range(eval.iter().map(|j| j.job.sessions.len())),
            range(sessions.map(|s| s.lines.len())),
            format!(
                "{} / {} / {} / ({})",
                found.jobs.tp, found.jobs.fp, found.jobs.fn_, found.latent_found
            ),
        );
        total += found.jobs;
    }
    let (p, r, f) = total.prf();
    println!(
        "\ndetected {} of {} injected problems; overall precision {:.2}% recall {:.2}% F {:.2}%",
        total.tp,
        total.tp + total.fn_,
        100.0 * p,
        100.0 * r,
        100.0 * f
    );
    println!("paper: Spark 13/2/2/(2) | MapReduce 15/1/0/(0) | Tez 13/3/2/(3); 41 of 45; precision 87.23% recall 91.11%");
}

fn case_cfg(
    system: SystemKind,
    workload: &str,
    input_gb: u32,
    mem_mb: u32,
    cores: u32,
    seed: u64,
) -> JobConfig {
    JobConfig {
        system,
        workload: workload.into(),
        input_gb,
        mem_mb,
        cores,
        executors: 4,
        hosts: 10,
        seed,
    }
}

/// Table 7 — the three diagnosis case studies (§6.4).
///
/// Case 1: a MapReduce WordCount job with a network problem on one host —
/// the GroupBy procedure converges on the victim.
/// Case 2: Spark KMeans and Tez Query 8 with a performance issue (memory
/// spill) — a new 'spill' entity and a disk path surface; re-running with a
/// larger memory limit is clean.
/// Case 3: a Spark WordCount job hitting the Spark-19731 starvation bug —
/// sessions missing the 'task' entity group.
fn table7(train_jobs: usize) {
    println!("Table 7: case studies\n");

    // ---------- Case 1: MapReduce WordCount, network problem ----------
    let il_mr = IntelLog::train(&training_sessions(SystemKind::MapReduce, train_jobs, 301));
    let c1 = case_cfg(SystemKind::MapReduce, "wordcount", 30, 4096, 8, 777);
    let plan = FaultPlan::new(FaultKind::NetworkFailure, 0.3, 4, 0);
    let job = dlasim::generate(&c1, Some(&plan));
    let sessions = sessions_from_job(&job);
    let report = il_mr.detect_job(&sessions);
    let diag = il_mr.diagnose(&report);
    println!(
        "case 1  MapReduce/WordCount 30GB 8-core: sessions D/T = {}/{}",
        report.problematic_count(),
        report.total_count()
    );
    println!(
        "        GroupBy identifiers: {} groups; GroupBy locality:",
        diag.identifier_groups
    );
    for (h, n) in diag.hosts.iter().take(3) {
        println!("          {h}: {n} failing messages");
    }
    println!("        => network problem on a host (paper: 4/259, 11 fetcher groups, one host)\n");

    // ---------- Case 2.1: Spark KMeans performance issue ----------
    let il_sp = IntelLog::train(&training_sessions(SystemKind::Spark, train_jobs, 302));
    let c21 = case_cfg(SystemKind::Spark, "kmeans", 30, 2048, 8, 778);
    let plan = FaultPlan::new(FaultKind::MemorySpill, 0.0, 0, 0);
    let job = dlasim::generate(&c21, Some(&plan));
    let report = il_sp.detect_job(&sessions_from_job(&job));
    let diag = il_sp.diagnose(&report);
    println!(
        "case 2.1 Spark/KMeans 30GB 2GB-mem: sessions D/T = {}/{}",
        report.problematic_count(),
        report.total_count()
    );
    println!(
        "        new entities in unexpected messages: {:?}",
        diag.new_entities
    );

    // ---------- Case 2.2: Tez Query 8 performance issue (3 jobs) ----------
    let il_tz = IntelLog::train(&training_sessions(SystemKind::Tez, train_jobs, 303));
    let (mut d, mut t) = (0, 0);
    let mut new_entities = Vec::new();
    let mut spill_paths = 0usize;
    for k in 0..3 {
        let c22 = case_cfg(SystemKind::Tez, "query8", 5, 1024, 1, 800 + k);
        let plan = FaultPlan::new(FaultKind::MemorySpill, 0.0, 0, 0);
        let job = dlasim::generate(&c22, Some(&plan));
        let report = il_tz.detect_job(&sessions_from_job(&job));
        d += report.problematic_count();
        t += report.total_count();
        let diag = il_tz.diagnose(&report);
        new_entities.extend(diag.new_entities);
        for a in report.anomalies() {
            match a {
                Anomaly::UnexpectedRepeats {
                    template, count, ..
                } => println!("        unexpected repeats: {template} × {count}"),
                Anomaly::UnexpectedMessage { intel, .. } => {
                    spill_paths += intel
                        .localities
                        .iter()
                        .filter(|l| l.starts_with('/'))
                        .count()
                }
                _ => {}
            }
        }
    }
    new_entities.sort();
    new_entities.dedup();
    println!("case 2.2 Tez/Query8 5GB 1GB-mem x3: sessions D/T = {d}/{t}");
    println!(
        "        new entities: {new_entities:?}; disk paths recorded in {spill_paths} messages"
    );

    // Verification run: same jobs with a larger memory limit are clean.
    let c_verify = case_cfg(SystemKind::Spark, "kmeans", 30, 8192, 8, 778);
    let job = dlasim::generate(&c_verify, None);
    let report = il_sp.detect_job(&sessions_from_job(&job));
    println!(
        "        re-run with larger memory: D/T = {}/{} (paper: no problem triggered)\n",
        report.problematic_count(),
        report.total_count()
    );

    // ---------- Case 3: Spark-19731 starvation bug ----------
    let c3 = case_cfg(SystemKind::Spark, "wordcount", 30, 16384, 8, 779);
    let plan = FaultPlan::new(FaultKind::Starvation, 0.0, 0, 0);
    let job = dlasim::generate(&c3, Some(&plan));
    let sessions = sessions_from_job(&job);
    let report = il_sp.detect_job(&sessions);
    let missing_task = report
        .sessions
        .iter()
        .filter(|s| {
            s.anomalies.iter().any(|a| match a {
                Anomaly::MissingGroup { group } => {
                    group.contains("task") || group == "stage" || group == "tid"
                }
                Anomaly::MissingCriticalKey { group, .. } => group.contains("task"),
                _ => false,
            })
        })
        .count();
    println!(
        "case 3  Spark/WordCount starvation bug: sessions D/T = {}/{}",
        report.problematic_count(),
        report.total_count()
    );
    println!(
        "        {missing_task} sessions contain no message of the 'task' entity group (paper: 4 of 8)"
    );
    // Inspect the HW-graph instances of the healthy sessions (the paper
    // counts at most 8 task subroutine instances per container).
    let max_task_instances = sessions
        .iter()
        .map(|s| {
            il_sp
                .detector()
                .detect_session_detailed(s)
                .1
                .subroutine_instance_count("task")
        })
        .max()
        .unwrap_or(0);
    println!(
        "        healthy sessions hold at most {max_task_instances} task subroutine instances (paper: at most 8)"
    );
    println!("        => containers without tasks waste memory (Spark-19731)");
}

/// Table 8 — anomaly detection accuracy comparison: IntelLog vs DeepLog vs
/// LogCluster vs SemVec (the parsing-free semantic-vector baseline).
///
/// All tools are fitted on the same clean jobs and scored per session on
/// the same Table 6 corpora (four evaluated systems — Spark, MapReduce,
/// Tez, TensorFlow — 30 jobs each) against the simulator's `affected`
/// flag. SemVec alone reads the **raw rendered lines** (headers and all, no
/// parser); DeepLog and LogCluster each read a Spell key space. Paper:
/// IntelLog 87.23 / 91.11 / 89.13; DeepLog 8.81 / 100.00 / 16.19;
/// LogCluster 73.08 / N/A / N/A.
fn table8(train_jobs: usize) {
    // name, whether recall is reported (LogCluster surfaces representative
    // logs for examination; the paper gives its recall as N/A), the tool,
    // its per-session counts over all systems
    let none = Confusion::default();
    let mut tools: [(&str, bool, Box<dyn SessionDetector>, Confusion); 4] = [
        ("IntelLog", true, Box::<IntelLogTool>::default(), none),
        ("DeepLog", true, Box::<KeySeqTool<DeepLog>>::default(), none),
        (
            "LogCluster",
            false,
            Box::<KeySeqTool<LogCluster>>::default(),
            none,
        ),
        ("SemVec", true, Box::<SemVecTool>::default(), none),
    ];
    for system in SystemKind::EVALUATED {
        let train = training_jobs(system, train_jobs, 100 + system as u64);
        let eval = table6_jobs(system, 200 + system as u64);
        for (_, _, tool, total) in &mut tools {
            tool.fit(system, &train);
            *total += score(tool.as_ref(), &eval).0;
        }
    }

    println!("Table 8: anomaly detection accuracy comparison (per-session)\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "tool", "precision", "recall", "F-measure"
    );
    for (name, recall_reported, _, c) in &tools {
        let (p, r, f) = c.prf();
        let cell = |x: f64| match recall_reported {
            true => format!("{:.2}%", 100.0 * x),
            false => "N/A".to_string(),
        };
        println!(
            "{name:<12} {:>9.2}% {:>10} {:>10}",
            100.0 * p,
            cell(r),
            cell(f)
        );
    }
    println!("\npaper: IntelLog 87.23/91.11/89.13 | DeepLog 8.81/100.00/16.19 | LogCluster 73.08/N-A/N-A");
    println!(
        "(SemVec is this repo's parsing-free baseline, per the NeuralLog direction — no paper row)"
    );
    let raw: Vec<String> = tools
        .iter()
        .enumerate()
        .map(|(i, (name, _, _, c))| {
            let legend = if i == 0 { " tp/fp/fn" } else { "" };
            format!("{name}{legend} {}/{}/{}", c.tp, c.fp, c.fn_)
        })
        .collect();
    println!("(raw counts — {})", raw.join("; "));
}

/// Figure 1 — the annotated MapReduce fetcher log snippet: the fetcher
/// subroutine of a simulated MapReduce job, each log key with its field
/// annotations (entity / identifier / value / locality).
fn figure1(_: usize) {
    let cfg = JobConfig {
        system: SystemKind::MapReduce,
        workload: "wordcount".into(),
        input_gb: 4,
        mem_mb: 2048,
        cores: 4,
        executors: 2,
        hosts: 5,
        seed: 1,
    };
    let job = dlasim::generate(&cfg, None);
    let fetcher_templates = ["mr.fetch.about", "mr.fetch.read", "mr.fetch.freed"];

    let mut parser = SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    let mut samples: Vec<String> = Vec::new();
    for session in &job.sessions {
        for line in &session.lines {
            if fetcher_templates.contains(&line.template_id) {
                if samples.len() < 3 {
                    samples.push(line.message.clone());
                }
                parser.parse_spans(&line.message, &mut spans, &mut ids);
            }
        }
    }

    println!("Figure 1: a real-world log snippet of MapReduce (simulated)\n");
    println!("messages:");
    for (i, s) in samples.iter().enumerate() {
        println!("  {} {s}", i + 1);
    }
    println!("\nlog keys and annotations:");
    let ex = IntelExtractor::new();
    for key in parser.keys() {
        let ik = ex.build(key);
        println!("  {}", key.render());
        println!("    entities:   {:?}", ik.entity_phrases());
        let mut ids = Vec::new();
        let mut vals = Vec::new();
        let mut locs = Vec::new();
        for f in &ik.fields {
            match f.category {
                FieldCategory::Identifier => ids.push(format!(
                    "pos {} [{}]",
                    f.pos,
                    f.id_type.clone().unwrap_or_default()
                )),
                FieldCategory::Value => vals.push(format!(
                    "pos {} [{}]",
                    f.pos,
                    f.name.clone().unwrap_or_default()
                )),
                FieldCategory::Locality => locs.push(format!("pos {}", f.pos)),
                FieldCategory::Skipped => {}
            }
        }
        println!("    identifiers: {ids:?}");
        println!("    values:      {vals:?}");
        println!("    localities:  {locs:?}");
        println!();
    }
}

/// Figures 3 & 4 — POS tagging of a log key through its sample message, and
/// the full log-key → Intel-Key transformation.
fn figure34(_: usize) {
    // ---- Figure 3: '* MapTask metrics system' tagged via its sample. ----
    println!("Figure 3: POS tagging on a log key\n");
    let key_text = "* MapTask metrics system";
    let sample_text = "Starting MapTask metrics system";
    println!("log key:        {key_text}");
    println!("sample message: {sample_text}\n");
    let sample_tagged = tag(&tokenize(sample_text));
    print!("tagged sample:  ");
    for t in &sample_tagged {
        print!("{}/{} ", t.token.text, t.tag);
    }
    println!();
    let key_tagged = tag_key_with_sample(&tokenize(key_text), &tokenize(sample_text));
    print!("tagged key:     ");
    for t in &key_tagged {
        print!("{}/{} ", t.token.text, t.tag);
    }
    println!("\n");

    // ---- Figure 4: the Spark task-finish key becomes an Intel Key. ----
    println!("Figure 4: transforming a log key to an Intel Key\n");
    let mut parser = SpellParser::default();
    let m1 = "Finished task 0.0 in stage 1.0 TID 42. 2264 bytes result sent to driver";
    let m2 = "Finished task 3.0 in stage 1.0 TID 45. 912 bytes result sent to driver";
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    let (key_id, _) = parser.parse_spans(m1, &mut spans, &mut ids);
    parser.parse_spans(m2, &mut spans, &mut ids);
    let key = parser.key(key_id);
    println!("messages:");
    println!("  {m1}");
    println!("  {m2}");
    println!("log key:\n  {}\n", key.render());

    let ik = IntelExtractor::new().build(key);
    println!("Intel Key:");
    println!(
        "  entities:   {:?}  (unit word 'bytes' omitted)",
        ik.entity_phrases()
    );
    for f in &ik.fields {
        match f.category {
            FieldCategory::Identifier => println!(
                "  identifier: position {} type {}",
                f.pos,
                f.id_type.as_deref().unwrap_or("?")
            ),
            FieldCategory::Value => println!(
                "  value:      position {} ({})",
                f.pos,
                f.name.as_deref().unwrap_or("?")
            ),
            FieldCategory::Locality => println!("  locality:   position {}", f.pos),
            FieldCategory::Skipped => {}
        }
    }
    for op in &ik.operations {
        println!("  operation:  {op}");
    }
}

/// Figure 8 — the Spark HW-graph with the semantic knowledge of the
/// workflow: hierarchical entity groups (critical marked `*`), subroutines
/// per identifier-type signature, critical Intel Keys marked `!`.
fn figure8(jobs: usize) {
    let sessions = training_sessions(SystemKind::Spark, jobs, 88);
    let total_msgs: usize = sessions.iter().map(|s| s.len()).sum();
    let il = IntelLog::train(&sessions);
    println!(
        "Figure 8: the HW-graph for Spark (built from {} sessions / {} messages)\n",
        sessions.len(),
        total_msgs
    );
    print!("{}", il.render_graph());
    println!(
        "\nJSON export: {} bytes (paper §5: HW-graphs are output as JSON)",
        il.graph_json().len()
    );
}

/// Figure 9 — the S³ graph of Spark built by Stitch (the identifier-only
/// baseline). Contrast with Figure 8: the S³ graph captures identifier
/// hierarchies but none of the operations/events the HW-graph carries.
fn figure9(jobs: usize) {
    // keys learned over the whole corpus, S3 relations scoped per job
    let per_job: Vec<_> = training_jobs(SystemKind::Spark, jobs, 88)
        .iter()
        .map(sessions_from_job)
        .collect();
    let (parser, _) = train_keyseqs(&per_job.concat());
    let per_job: Vec<_> = per_job
        .iter()
        .map(|sessions| intel_messages(&parser, sessions))
        .collect();
    let g = S3Graph::build_scoped(&per_job);
    println!("Figure 9: the S3 graph of Spark built by Stitch\n");
    println!("identifier types: {:?}\n", g.types);
    print!("{}", g.render());
    println!("\npaper shape: {{HOST/IP}} -> {{EXECUTOR/CONTAINER}} -> {{STAGE, TASK}} -> {{TID}}; {{BROADCAST}} isolated");
    println!(
        "note: no operations, no entities — identifier names only (the paper's §6.3 critique)"
    );
}
