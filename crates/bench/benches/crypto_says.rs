//! Microbenchmark of the `says` layer itself: what one shipment frame costs
//! to assert and verify at each strength level — cleartext header, HMAC,
//! per-frame RSA, and the session channel that amortises RSA down to one
//! handshake per link.
//!
//! The `session/*` pairs make the tentpole trade visible in isolation: the
//! `handshake` pair is the once-per-link RSA cost, the steady-state
//! `mac_frame`/`verify_frame` pair is what every subsequent frame pays —
//! orders of magnitude below `rsa/assert_frame`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pasn_crypto::bigint::{BigUint, MontgomeryCtx};
use pasn_crypto::prime::gen_prime;
use pasn_crypto::principal::{KeyAuthority, Principal, PrincipalId};
use pasn_crypto::rsa::RsaKeyPair;
use pasn_crypto::says::{Authenticator, SaysLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// A typical five-tuple shipment frame (reachability tuples).
fn frame_tuples() -> Vec<Vec<u8>> {
    (0..5)
        .map(|i| format!("reachable(n{i},n{})", i + 7).into_bytes())
        .collect()
}

fn says_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_says");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));

    let principals = vec![Principal::new(0u32, "a"), Principal::new(1u32, "b")];
    let authority = KeyAuthority::provision(&principals, 42).unwrap();
    let tuples = frame_tuples();

    for level in [SaysLevel::Cleartext, SaysLevel::Hmac, SaysLevel::Rsa] {
        let a = Authenticator::new(authority.keyring_for(PrincipalId(0)).unwrap(), level);
        let b = Authenticator::new(authority.keyring_for(PrincipalId(1)).unwrap(), level);
        let assertion = a.assert_frame(&tuples);
        group.bench_function(format!("{}/assert_frame", level.name()), |bench| {
            bench.iter(|| a.assert_frame(&tuples))
        });
        group.bench_function(format!("{}/verify_frame", level.name()), |bench| {
            bench.iter(|| b.verify_frame(&tuples, &assertion).is_ok())
        });
    }

    // Session channel: the RSA handshake is paid once per link, then every
    // frame costs one MAC on each side.
    let a = Authenticator::new(
        authority.keyring_for(PrincipalId(0)).unwrap(),
        SaysLevel::Session,
    );
    let b = Authenticator::new(
        authority.keyring_for(PrincipalId(1)).unwrap(),
        SaysLevel::Session,
    );
    group.bench_function("session-channel/handshake", |bench| {
        bench.iter(|| {
            let (handshake, _) = a.open_channel(PrincipalId(1), 0, u64::MAX);
            b.accept_channel(&handshake).unwrap()
        })
    });
    let (handshake, mut tx) = a.open_channel(PrincipalId(1), 0, u64::MAX);
    let rx = b.accept_channel(&handshake).unwrap();
    group.bench_function("session-channel/mac_frame", |bench| {
        bench.iter(|| a.assert_frame_on(&mut tx, &tuples))
    });
    let assertion = a.assert_frame_on(&mut tx, &tuples);
    group.bench_function("session-channel/verify_frame", |bench| {
        bench.iter(|| {
            // A fresh receiver state per iteration (a trivial copy) keeps
            // the replay counter satisfied while measuring verification
            // alone, comparable to the other levels' verify_frame numbers.
            let mut rx = rx.clone();
            b.verify_frame_on(&mut rx, &tuples, &assertion, SaysLevel::Session)
                .unwrap()
        })
    });
    group.finish();
}

/// The RSA hot path in isolation, one row per thing that can move on its
/// own: CRT signing (two half-width exponentiations + Garner recombination)
/// against the classic full-width reference, a verification, the window
/// ladder at the full-width and the CRT-half shape against the heap-vector
/// binary reference, the Montgomery kernel alone at both RSA limb counts, and
/// what one seeded 512-bit keygen costs (Miller–Rabin dominates — the number
/// that matters for the 10k-node scale item).
fn rsa_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_says");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));

    let mut rng = StdRng::seed_from_u64(1234);
    let kp = RsaKeyPair::generate(512, &mut rng).unwrap();
    let message = b"reachable(a,c) asserted by a";
    let signature = kp.sign(message);
    group.bench_function("sign/crt", |bench| bench.iter(|| kp.sign(message)));
    group.bench_function("sign/full-width", |bench| {
        bench.iter(|| kp.sign_classic(message))
    });
    group.bench_function("verify/e65537", |bench| {
        bench.iter(|| kp.verify(message, &signature))
    });

    // A full-width exponentiation over the keypair's modulus with a
    // full-size exponent — the exact shape a classic private-key operation
    // exercises, window vs binary — and the shape of one CRT half: the same
    // 512-bit base under a 256-bit prime and exponent.
    let ctx = MontgomeryCtx::new(kp.public_key().modulus()).unwrap();
    let half = MontgomeryCtx::new(&gen_prime(256, &mut rng)).unwrap();
    let base = BigUint::from_bytes_be(&signature);
    let exponent = BigUint::random_with_bits(512, &mut rng);
    let half_exponent = BigUint::random_with_bits(256, &mut rng);
    group.bench_function("mod_pow/window", |bench| {
        bench.iter(|| ctx.mod_pow(&base, &exponent))
    });
    group.bench_function("mod_pow/binary", |bench| {
        bench.iter(|| ctx.mod_pow_binary(&base, &exponent))
    });
    group.bench_function("mod_pow/256", |bench| {
        bench.iter(|| half.mod_pow(&base, &half_exponent))
    });

    group.bench_function("keygen", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed = seed.wrapping_add(1);
            let mut rng = StdRng::seed_from_u64(seed);
            RsaKeyPair::generate(512, &mut rng).unwrap()
        })
    });

    // The kernel alone: raising to 2^CHAIN is CHAIN squarings, each one call
    // of the one Montgomery multiply on (a, a) — the figure a dedicated
    // squaring kernel would have to beat at both sizes.  The window table
    // and the two conversions add 19 calls (under 0.5 %); the elem/s column
    // is kernel calls per second.
    const CHAIN: usize = 4096;
    let chain = BigUint::one().shl_bits(CHAIN);
    group.throughput(Throughput::Elements(CHAIN as u64));
    group.bench_function("mont_mul/k4", |bench| {
        bench.iter(|| half.mod_pow(&base, &chain))
    });
    group.bench_function("mont_mul/k8", |bench| {
        bench.iter(|| ctx.mod_pow(&base, &chain))
    });
    group.finish();
}

criterion_group!(benches, says_levels, rsa_hot_path);
criterion_main!(benches);
