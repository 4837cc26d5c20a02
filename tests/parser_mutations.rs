//! Mutation guards for the two text parsers that read user files: the
//! `phonocmap-trace/1` JSONL reader (`phonocmap trace`) and the CG text
//! format (`--file`). A few hundred seeded byte-level mutations of a
//! valid input each must come back `Ok` or `Err` — never a panic.

use phonocmap::apps::text::{parse_cg, render_cg};
use phonocmap::core::{parse_trace, render_trace, run_dse_traced, summarize_trace, DseConfig};
use phonocmap::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutated copies of `input` per parser.
const MUTANTS: usize = 300;

/// Bytes that steer a mutant into the parsers' interesting corners:
/// JSON and CG punctuation, digits, signs, whitespace, and a non-ASCII
/// lead byte (the mutant is read lossily, like a non-UTF-8 file would
/// be rejected or replaced upstream).
const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \t\n#abz\\\xc3";

/// One to four random edits of `input`: overwrite, insert, delete,
/// duplicate a span, or truncate.
fn mutate(input: &[u8], rng: &mut StdRng) -> String {
    let mut bytes = input.to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        let at = rng.gen_range(0..=len);
        let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..5u32) {
            0 if at < len => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < len => {
                bytes.remove(at);
            }
            3 if at < len => {
                let end = rng.gen_range(at..=len.min(at + 16));
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_traces_never_panic_the_reader() {
    let cg = benchmarks::benchmark("PIP").expect("known benchmark");
    let problem = MappingProblem::new(
        cg,
        Topology::mesh(3, 3, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .expect("PIP assembles");
    let rpbla = phonocmap::opt::optimizer("r-pbla").expect("builtin");
    let (_, events) = run_dse_traced(&problem, rpbla.as_ref(), &DseConfig::new(40, 3));
    let valid = render_trace("optimize", &events);
    let (header, parsed) = parse_trace(&valid).expect("own output parses");
    summarize_trace(&header, &parsed).expect("own output reconciles");

    let mut rng = StdRng::seed_from_u64(0x7ACE);
    for _ in 0..MUTANTS {
        let mutant = mutate(valid.as_bytes(), &mut rng);
        // The `trace` subcommand's path: parse, then summarize.
        if let Ok((header, events)) = parse_trace(&mutant) {
            let _ = summarize_trace(&header, &events);
        }
    }
}

#[test]
fn mutated_cg_files_never_panic_the_parser() {
    let valid = render_cg(&benchmarks::benchmark("VOPD").expect("known benchmark"));
    parse_cg(&valid).expect("own output parses");

    let mut rng = StdRng::seed_from_u64(0xC6);
    for _ in 0..MUTANTS {
        let _ = parse_cg(&mutate(valid.as_bytes(), &mut rng));
    }
}
