//! The host under the benchmark: its fingerprint and the roofline
//! denominators (peak FMA rate, sustainable memory bandwidth), measured in
//! the same process and run as the `blas.*` rates they are held against.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// What the numbers were measured on, recorded beside them.
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Size of the highest-level cache of cpu0, bytes (0 when unknown).
    pub llc_bytes: u64,
    /// The DGEMM microkernel this process resolved to (`simd` / `scalar`).
    pub kernel: &'static str,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the repository (`unknown` outside git).
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Parses a sysfs cache size such as `4096K` or `260M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, unit) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1u64 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(unit)
}

/// Size of cpu0's highest-level data or unified cache.
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_cache_size(&size)) {
            if level > best.0 {
                best = (level, size);
            }
        }
    }
    best.1
}

impl Fingerprint {
    /// Reads the fingerprint; `root` is the repository.
    pub fn read(root: &std::path::Path) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            llc_bytes: llc_bytes(),
            kernel: hpl_blas::kernels::active().name(),
            rustc: command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"], root)
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Fewer than two processors: the two-rank and two-thread figures share
    /// a core, so they are counts of work done, not scaling measurements.
    pub fn oversubscribed(&self) -> bool {
        self.nproc < 2
    }
}

/// Seconds one call of `f` takes; its result is kept from the optimizer.
pub fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Takes samples (each the seconds its own timed section took, so set-up
/// can stay outside) for at least `slice_s` seconds and at least twice
/// (once when `slice_s` is zero: the smoke run), and returns the smallest: on a shared host interference only ever adds
/// time, so the least-disturbed sample is the best estimate of what the
/// code itself costs.
pub fn best_of(slice_s: f64, mut sample: impl FnMut() -> f64) -> f64 {
    let t0 = Instant::now();
    let mut best = f64::INFINITY;
    let mut samples = 0;
    let at_least = if slice_s > 0.0 { 2 } else { 1 };
    while samples < at_least || t0.elapsed().as_secs_f64() < slice_s {
        best = best.min(sample());
        samples += 1;
    }
    best
}

/// Fused multiply-adds per [`fma_chains_f64`]/[`fma_chains_f32`] call.
const FMA_ITERS: usize = 1 << 16;
/// Independent accumulator chains: enough to cover the FMA latency on two
/// issue ports while staying inside the register file.
const CHAINS: usize = 10;

#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{CHAINS, FMA_ITERS};
    use core::arch::x86_64::*;

    /// Ten 4-wide f64 FMA chains, `FMA_ITERS` deep, all in registers.
    ///
    /// # Safety
    /// The caller must have checked that the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn chains_f64(seed: f64) -> f64 {
        let m = _mm256_set1_pd(1.0 - 1e-9);
        let a = _mm256_set1_pd(1e-9);
        let mut acc = [_mm256_set1_pd(seed); CHAINS];
        for _ in 0..FMA_ITERS {
            for x in &mut acc {
                *x = _mm256_fmadd_pd(*x, m, a);
            }
        }
        let mut sum = acc[0];
        for x in &acc[1..] {
            sum = _mm256_add_pd(sum, *x);
        }
        let mut out = [0.0f64; 4];
        // SAFETY: `out` is four f64 wide; the unaligned store needs no
        // alignment (AVX2 checked by the caller).
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), sum) };
        out.iter().sum()
    }

    /// Ten 8-wide f32 FMA chains, `FMA_ITERS` deep, all in registers.
    ///
    /// # Safety
    /// The caller must have checked that the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn chains_f32(seed: f32) -> f32 {
        let m = _mm256_set1_ps(1.0 - 1e-6);
        let a = _mm256_set1_ps(1e-6);
        let mut acc = [_mm256_set1_ps(seed); CHAINS];
        for _ in 0..FMA_ITERS {
            for x in &mut acc {
                *x = _mm256_fmadd_ps(*x, m, a);
            }
        }
        let mut sum = acc[0];
        for x in &acc[1..] {
            sum = _mm256_add_ps(sum, *x);
        }
        let mut out = [0.0f32; 8];
        // SAFETY: `out` is eight f32 wide; the unaligned store needs no
        // alignment (AVX2 checked by the caller).
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), sum) };
        out.iter().sum()
    }
}

/// Portable FMA chains for hosts without the AVX2 path: `lanes`-wide
/// arrays the compiler may vectorize; `mul_add` is a hardware FMA wherever
/// the target has one.
fn fma_chains_portable<T: Copy, const LANES: usize>(
    seed: T,
    m: T,
    a: T,
    fma: impl Fn(T, T, T) -> T,
) -> [[T; LANES]; CHAINS] {
    let mut acc = [[seed; LANES]; CHAINS];
    for _ in 0..FMA_ITERS {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = fma(*x, m, a);
            }
        }
    }
    acc
}

/// Peak fused multiply-add rates of one core, GFLOPS: `(f64, f32)`. On
/// x86-64 this is the AVX2+FMA peak — the widest instruction set `hpl-blas`
/// has a microkernel for — so `blas.dgemm_frac_of_peak` is a fraction of
/// what that kernel could reach, not of an AVX-512 peak it never targets.
pub fn peak_gflops(slice_s: f64) -> (f64, f64) {
    let (t64, t32) = fma_chain_seconds(slice_s);
    let flops = |lanes: usize| (2 * lanes * CHAINS * FMA_ITERS) as f64;
    (flops(4) / t64 / 1e9, flops(8) / t32 / 1e9)
}

/// Best seconds of one call of the 4-lane f64 and the 8-lane f32 chains.
fn fma_chain_seconds(slice_s: f64) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        return (
            best_of(slice_s, || {
                // SAFETY: AVX2 and FMA were detected just above.
                timed(|| unsafe { fma::chains_f64(black_box(0.5)) })
            }),
            best_of(slice_s, || {
                // SAFETY: AVX2 and FMA were detected just above.
                timed(|| unsafe { fma::chains_f32(black_box(0.5)) })
            }),
        );
    }
    (
        best_of(slice_s, || {
            timed(|| fma_chains_portable::<f64, 4>(black_box(0.5), 1.0 - 1e-9, 1e-9, f64::mul_add))
        }),
        best_of(slice_s, || {
            timed(|| fma_chains_portable::<f32, 8>(black_box(0.5), 1.0 - 1e-6, 1e-6, f32::mul_add))
        }),
    )
}

/// Most one bandwidth array may take. Four times the last-level cache is
/// the rule; on a virtual machine that reports its whole socket's cache
/// (260 MiB here) that asks for gigabytes of never-touched guest memory, at
/// some 20 us per first-touched page — seconds of every run. Capped, the
/// three arrays are still a working set larger than that cache, so no pass
/// is served from it; the report says when the rule is not met.
pub const STREAM_ARRAY_CAP: u64 = 128 << 20;

/// Three f64 arrays for the bandwidth measurements, each four times the
/// last-level cache (up to [`STREAM_ARRAY_CAP`]) so no pass is served from
/// cache.
pub struct StreamArrays {
    /// Triad destination / level-1 `y`.
    pub a: Vec<f64>,
    /// Triad first source / level-1 `x`.
    pub b: Vec<f64>,
    /// Triad second source.
    pub c: Vec<f64>,
}

impl StreamArrays {
    /// Allocates and first-touches the arrays. An unknown cache size
    /// (`llc_bytes == 0`) gets the cap.
    pub fn new(llc_bytes: u64) -> StreamArrays {
        let bytes = match llc_bytes {
            0 => STREAM_ARRAY_CAP,
            llc => (4 * llc).min(STREAM_ARRAY_CAP),
        };
        let n = usize::try_from(bytes / 8).expect("array length fits usize");
        let fill = |v: f64| -> Vec<f64> { (0..n).map(|i| v + (i % 7) as f64).collect() };
        StreamArrays {
            a: fill(0.0),
            b: fill(1.0),
            c: fill(2.0),
        }
    }

    /// Bytes of one array.
    pub fn array_bytes(&self) -> u64 {
        (self.a.len() * 8) as u64
    }

    /// STREAM triad `a = b + s*c`, GB/s over the computed 24 bytes per
    /// element (two reads and a write; write-allocate traffic not counted).
    pub fn triad_gbps(&mut self, slice_s: f64) -> f64 {
        let s = black_box(3.0);
        let t = best_of(slice_s, || {
            timed(|| {
                for ((a, b), c) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
                    *a = b + s * c;
                }
                self.a[0]
            })
        });
        (3 * self.array_bytes()) as f64 / t / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("4096K\n"), Some(4096 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn best_of_samples_at_least_twice_and_keeps_the_smallest() {
        let mut samples = [3.0, 2.0, 1.0].into_iter();
        assert_eq!(best_of(1e-9, || samples.next().unwrap()), 2.0);
        assert_eq!(samples.next(), Some(1.0));
        // A zero slice is the smoke run: one sample.
        assert_eq!(best_of(0.0, || 5.0), 5.0);
    }

    #[test]
    fn peak_rates_are_positive_and_f32_is_not_slower() {
        let (p64, p32) = peak_gflops(0.01);
        assert!(p64 > 0.1, "{p64}");
        assert!(p32 > 0.9 * p64, "{p32} vs {p64}");
    }
}
