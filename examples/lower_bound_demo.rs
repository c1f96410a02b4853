//! The Ω(n log n) lower bound, demonstrated: sweep n, sample
//! permutations, and watch the worst-case construction cost track the
//! information-theoretic floor.
//!
//! ```text
//! cargo run --release --example lower_bound_demo [algorithm]
//! ```
//!
//! `algorithm` is one of `dekker-tree` (default), `peterson`, `bakery`,
//! `filter`, `dijkstra`, `burns-lynch`.

use exclusion::lb::{construct, encode, log2_factorial, ConstructConfig, Permutation};
use exclusion::mutex::AlgorithmRegistry;
use exclusion::shmem::DynRef;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "dekker-tree".into());
    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "n", "min C", "avg C", "max C", "log2(n!)", "max bits", "bits/C"
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let resolved = match AlgorithmRegistry::global().resolve_str(&wanted, n) {
            Ok(r) if !r.uses_rmw => r,
            _ => {
                eprintln!("unknown register-only algorithm `{wanted}`");
                std::process::exit(2);
            }
        };
        if resolved.label == "filter" && n > 16 {
            continue; // cubic baseline gets slow beyond this
        }
        let alg = DynRef(resolved.automaton.as_ref());
        let mut rng = StdRng::seed_from_u64(7 * n as u64);
        let mut perms = vec![Permutation::identity(n), Permutation::reversed(n)];
        perms.extend((0..8).map(|_| Permutation::random(n, &mut rng)));
        let mut costs = Vec::new();
        let mut max_bits = 0usize;
        for pi in &perms {
            let c = construct(&alg, pi, &ConstructConfig::default())
                .unwrap_or_else(|e| panic!("{pi}: {e}"));
            max_bits = max_bits.max(encode(&c).bit_len());
            costs.push(c.cost());
        }
        let min = costs.iter().min().unwrap();
        let max = costs.iter().max().unwrap();
        let avg = costs.iter().sum::<usize>() as f64 / costs.len() as f64;
        println!(
            "{n:>4} {min:>8} {avg:>8.1} {max:>8} {:>10.1} {max_bits:>10} {:>8.2}",
            log2_factorial(n),
            max_bits as f64 / *max as f64,
        );
    }
    println!(
        "\nTheorem 7.5: some execution must cost ≥ log2(n!)/κ state changes;\n\
         the max-C column grows like n·log n for the tournament locks and\n\
         like n² for the scan-based ones — the lower bound is universal,\n\
         the upper bound is what separates algorithms."
    );
}
