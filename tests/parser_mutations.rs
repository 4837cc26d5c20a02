//! Mutation guards for the parsers that read user input: the
//! `phonocmap-trace/1` JSONL reader (`phonocmap trace`), the CG text
//! format (`--file`), the optimizer spec grammar (`--algo`, `--spec`)
//! and the command-line argument reader. A few hundred seeded
//! mutations of a valid input each must come back `Ok` or `Err` —
//! never a panic.

use bench::CliArgs;
use phonocmap::apps::text::{parse_cg, render_cg};
use phonocmap::core::{parse_trace, render_trace, run_dse_traced, summarize_trace, DseConfig};
use phonocmap::opt::portfolio::DEFAULT_SPEC;
use phonocmap::opt::{search_spec, PortfolioSpec};
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

/// The same idea for optimizer specs and command-line tokens: the
/// spec grammar's separators (`@ / ! + , = :`), digits, the dash of a
/// flag, and letters of the registry names.
const SPEC_ALPHABET: &[u8] = b"@/!+,=:-0123456789 abeilprstxz\xc3";

/// One to four random edits of `input`, drawing new bytes from
/// `alphabet`: overwrite, insert, delete, duplicate a span, or
/// truncate.
fn mutate(input: &[u8], alphabet: &[u8], rng: &mut StdRng) -> String {
    let mut bytes = input.to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        let at = rng.gen_range(0..=len);
        let byte = alphabet[rng.gen_range(0..alphabet.len())];
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
        let mutant = mutate(valid.as_bytes(), ALPHABET, &mut rng);
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
        let _ = parse_cg(&mutate(valid.as_bytes(), ALPHABET, &mut rng));
    }
}

#[test]
fn mutated_specs_never_panic_the_grammar() {
    for (seed, valid) in [
        (0x5BEC, DEFAULT_SPEC),
        (0x5BED, "r-pbla@sampled/hybrid!power"),
        (0x5BEE, "portfolio:r-pbla@sampled+sa,rounds=4"),
    ] {
        // `DEFAULT_SPEC` is a portfolio body, the others registry specs.
        assert!(
            search_spec(valid).is_ok() || PortfolioSpec::parse(valid).is_ok(),
            "{valid} parses"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..MUTANTS {
            let mutant = mutate(valid.as_bytes(), SPEC_ALPHABET, &mut rng);
            // `--algo` and `--spec` read through the first, the
            // portfolio body through the second.
            let _ = search_spec(&mutant);
            let _ = PortfolioSpec::parse(&mutant);
        }
    }
}

/// The flags `phonocmap optimize` accepts.
const OPTIMIZE_FLAGS: &[&str] = &[
    "--app",
    "--file",
    "--topology",
    "--router",
    "--objective",
    "--seed",
    "--algo",
    "--budget",
    "--trace-out",
];

#[test]
fn mutated_argument_vectors_never_panic_the_reader() {
    let valid: &[&[&str]] = &[
        &["--app", "VOPD", "--budget", "50", "--seed", "1"],
        &[
            "--app",
            "PIP",
            "--algo",
            "r-pbla@sampled",
            "--trace-out",
            "t.jsonl",
        ],
        &[
            "--file",
            "a.cg",
            "--topology",
            "torus",
            "--objective",
            "loss",
        ],
    ];
    let mut rng = StdRng::seed_from_u64(0xA265);
    for args in valid {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        CliArgs::parse(&args, OPTIMIZE_FLAGS, &[], 0).expect("valid arguments parse");
        for _ in 0..MUTANTS {
            let mut mutant = args.clone();
            let at = rng.gen_range(0..mutant.len());
            match rng.gen_range(0..4u32) {
                0 => {
                    mutant.remove(at);
                }
                1 => mutant.insert(at, mutant[at].clone()),
                2 => {
                    let other = rng.gen_range(0..mutant.len());
                    mutant.swap(at, other);
                }
                _ => mutant[at] = mutate(mutant[at].as_bytes(), SPEC_ALPHABET, &mut rng),
            }
            // The reads `optimize` makes after a successful parse.
            if let Ok(parsed) = CliArgs::parse(&mutant, OPTIMIZE_FLAGS, &[], 0) {
                let _ = parsed.count("--budget");
                let _ = parsed.parsed("--seed", 42u64);
                if let Some(algo) = parsed.value("--algo") {
                    let _ = search_spec(&algo);
                }
            }
        }
    }
}
