//! Everything a run derives from its workload seed: the input images and
//! the open-loop arrival schedule. The program under test receives only
//! these generated inputs.

use deepcam_data::{generate, SynthConfig};
use deepcam_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The seed whose reference-logits digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Test images per class in a workload's input pool (10 classes).
const IMAGES_PER_CLASS: usize = 16;

/// Independent streams drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Images = 1,
    Schedule = 2,
    Closed = 4,
}

/// A seed for one stream of one workload seed (splitmix-style mix, so
/// neighbouring seeds give unrelated streams).
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded test split a workload draws its images from: 1×28×28
/// digits for LeNet5, 3×32×32 objects for VGG11.
pub fn image_pool(seed: u64, objects: bool) -> Tensor {
    let base = if objects {
        SynthConfig::objects10()
    } else {
        SynthConfig::digits()
    };
    let cfg = base
        .with_seed(stream_seed(seed, Stream::Images))
        .with_samples(1, IMAGES_PER_CLASS);
    let (_train, test) = generate(&cfg);
    test.images().clone()
}

/// A fixed open-loop schedule: request `i` is due `due_s[i]` seconds
/// after the phase starts and carries pool image `image[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub due_s: Vec<f64>,
    pub image: Vec<usize>,
    pub duration_s: f64,
}

/// Poisson arrivals at `rate` per second over `duration_s`, each with a
/// uniformly drawn pool image. Built completely before the first send.
///
/// The request count is fixed at `rate · duration_s` and the arrival
/// times are that many sorted uniform draws: a Poisson process
/// conditioned on its count, so every seed offers exactly the same load.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64, pool_len: usize) -> Schedule {
    assert!(rate > 0.0 && duration_s > 0.0 && pool_len > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ((rate * duration_s).round() as usize).max(1);
    let mut due_s: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..duration_s)).collect();
    due_s.sort_by(|a, b| a.partial_cmp(b).expect("uniform draws are finite"));
    let image = (0..n).map(|_| rng.random_range(0..pool_len)).collect();
    Schedule {
        due_s,
        image,
        duration_s,
    }
}

/// FNV-1a over the bit patterns of every logit, in pool order.
pub fn logits_digest(rows: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The digest recorded for `workload` at [`DEFAULT_SEED`].
fn recorded_digest(workload: &str) -> Option<u64> {
    parse_digests(include_str!("../digests.txt"), workload)
}

fn parse_digests(text: &str, workload: &str) -> Option<u64> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(workload))
                .then(|| parts.next())
                .flatten()
                .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        })
}

/// Checks the reference logits of a [`DEFAULT_SEED`] run against the
/// recorded digest; other seeds have none to check.
pub fn check_digest(workload: &str, seed: u64, rows: &[Vec<f32>]) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let got = logits_digest(rows);
    match recorded_digest(workload) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "reference logits digest {got:#018x} differs from the recorded {want:#018x} for {workload}"
        )),
        None => Err(format!(
            "no digest recorded for {workload}; the reference logits digest is {got:#018x}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_images() {
        let a = poisson_schedule(stream_seed(7, Stream::Schedule), 200.0, 2.0, 160);
        let b = poisson_schedule(stream_seed(7, Stream::Schedule), 200.0, 2.0, 160);
        assert_eq!(a, b);
        let c = poisson_schedule(stream_seed(8, Stream::Schedule), 200.0, 2.0, 160);
        assert_ne!(a, c);
        // Exactly rate × duration arrivals, ascending and in range.
        assert_eq!(a.due_s.len(), 400);
        assert!(a.due_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.due_s.iter().all(|&t| (0.0..2.0).contains(&t)));
        assert!(a.image.iter().all(|&i| i < 160));

        let p = image_pool(7, false);
        assert_eq!(p.shape().dims(), [160, 1, 28, 28]);
        assert_eq!(p.data(), image_pool(7, false).data());
        assert_ne!(p.data(), image_pool(8, false).data());
    }

    #[test]
    fn digest_check_catches_a_flipped_bit() {
        let rows = vec![vec![1.0f32, -2.5], vec![0.125]];
        let d = logits_digest(&rows);
        let text = format!("# comment\nserve_lenet5 {d:#018x}\n");
        assert_eq!(parse_digests(&text, "serve_lenet5"), Some(d));
        assert_eq!(parse_digests(&text, "eval_vgg11"), None);
        let mut flipped = rows.clone();
        flipped[1][0] = f32::from_bits(flipped[1][0].to_bits() ^ 1);
        assert_ne!(logits_digest(&flipped), d);
        // Only the default seed is checked against the recorded file.
        assert!(check_digest("no_such_workload", DEFAULT_SEED + 1, &rows).is_ok());
        assert!(check_digest("no_such_workload", DEFAULT_SEED, &rows).is_err());
    }
}
