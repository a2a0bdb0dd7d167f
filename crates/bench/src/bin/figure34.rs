//! Figures 3 & 4 — POS tagging of a log key through its sample message, and
//! the full log-key → Intel-Key transformation.
//!
//! Run with: `cargo run -p intellog-bench --bin figure34`

use extract::{FieldCategory, IntelExtractor};
use lognlp::{tag, tag_key_with_sample, tokenize};
use spell::SpellParser;

fn main() {
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
