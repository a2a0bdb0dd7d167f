//! Figure 1 — the annotated MapReduce fetcher log snippet.
//!
//! Extracts the fetcher subroutine from a simulated MapReduce job and prints
//! each log key with its field annotations (entity / identifier / value /
//! locality), as in the paper's Figure 1.
//!
//! Run with: `cargo run -p intellog-bench --bin figure1`

use dlasim::{JobConfig, SystemKind};
use extract::{FieldCategory, IntelExtractor};
use spell::SpellParser;

fn main() {
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
