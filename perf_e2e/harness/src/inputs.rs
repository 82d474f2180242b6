//! Seeded inputs: synthetic Hurricane Isabel fields, 8 KB blocks cut from
//! them, "fresh" copies that defeat content-keyed caches, and 8 KB-chunk
//! time series for the streaming paths.

use pressio_core::chunking::slice_outer;
use pressio_core::{Data, Options};
use pressio_dataset::hurricane::{Hurricane, FIELDS, TIMESTEPS};
use pressio_stream::{frame::StreamHeader, StreamEncoder};

/// Absolute error bound of every compress, predict and stream in the run.
pub const ABS: f64 = 1e-4;

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One named buffer.
#[derive(Clone)]
pub struct Field {
    pub name: String,
    pub data: Data,
}

/// The field archive at `dims`: the same synthetic Hurricane Isabel in
/// every run, as a real archive would be. The run's seed picks the
/// traffic over it (which buffers, in which order, which fresh copies),
/// never the data, so ratios and prediction errors repeat exactly and
/// only the machine moves the timings.
pub fn archive(dims: [usize; 3]) -> Hurricane {
    Hurricane::with_dims(dims[0], dims[1], dims[2], TIMESTEPS)
}

/// `items` in a seeded order (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// All 13 fields at `timestep`; each `Hurricane::generate` call's time in
/// milliseconds is appended to `gen_ms`.
pub fn fields(h: &Hurricane, timestep: usize, gen_ms: &mut Vec<f64>) -> Vec<Field> {
    FIELDS
        .iter()
        .map(|&name| {
            let (data, ms) = crate::calib::time(|| h.generate(name, timestep));
            gen_ms.push(ms);
            Field {
                name: format!("{name}@t{timestep:02}"),
                data,
            }
        })
        .collect()
}

/// Cut every `block`-shaped tile out of each field.
pub fn blocks(fields: &[Field], block: [usize; 3]) -> Vec<Field> {
    let mut out = Vec::new();
    for f in fields {
        let dims = f.data.dims();
        for z in (0..dims[2]).step_by(block[2]) {
            for y in (0..dims[1]).step_by(block[1]) {
                for x in (0..dims[0]).step_by(block[0]) {
                    let data = f
                        .data
                        .slice_block(&[x, y, z], &block)
                        .expect("tiles lie inside the field");
                    out.push(Field {
                        name: format!("{}[{x},{y},{z}]", f.name),
                        data,
                    });
                }
            }
        }
    }
    out
}

/// A copy of `data` with one value moved by a few units in the last
/// place. Every feature is unchanged to many digits, but the content hash
/// is new, so the daemon's content-keyed caches see a buffer they never
/// held. Distinct `k` give distinct buffers; `salt` (the seed) moves
/// which value is touched.
pub fn fresh_copy(data: &Data, k: u64, salt: u64) -> Data {
    let mut values = data.as_f32().expect("inputs are f32").to_vec();
    let n = values.len() as u64;
    let i = (k.wrapping_add(salt) % n) as usize;
    let steps = u32::try_from(1 + k / n).expect("fewer than 2^32 fresh copies per buffer");
    let v = values[i];
    let moved = f32::from_bits(v.to_bits().wrapping_add(steps));
    values[i] = if moved.is_finite() {
        moved
    } else {
        v - f32::EPSILON
    };
    Data::from_f32(data.dims().to_vec(), values)
}

/// One field's 8 KB-chunk time series, stacked on a fourth (outer) axis.
pub struct Series {
    pub name: String,
    /// One timestep of 16×16×8 f32 per chunk, dims `[16, 16, 8, 1]`.
    pub chunks: Vec<Data>,
    /// PSTF-achieved compression ratio of each chunk (the `stream:actual`
    /// a sender reports).
    pub actual: Vec<f64>,
    /// Raw and PSTF-encoded byte totals of the whole series.
    pub raw_bytes: usize,
    pub encoded_bytes: usize,
}

pub const SERIES_DIMS: [usize; 3] = [16, 16, 8];
pub const SERIES_STEPS: usize = 16;

/// PSTF header for the series: sz3 at [`ABS`], one timestep per chunk.
pub fn series_header() -> StreamHeader {
    StreamHeader {
        codec: "sz3".into(),
        dtype: pressio_core::Dtype::F32,
        inner_dims: SERIES_DIMS.to_vec(),
        chunk_outer: 1,
        chained: false,
        codec_options: Options::new()
            .with("pressio:abs", ABS)
            .with("pressio:nthreads", 1u64),
    }
}

/// Every field's series over `SERIES_STEPS` timesteps.
pub fn series() -> Vec<Series> {
    let h = archive(SERIES_DIMS);
    FIELDS
        .iter()
        .map(|&name| {
            let mut values = Vec::new();
            for t in 0..SERIES_STEPS {
                values.extend_from_slice(h.generate(name, t).as_f32().expect("f32 field"));
            }
            let mut dims = SERIES_DIMS.to_vec();
            dims.push(SERIES_STEPS);
            let stacked = Data::from_f32(dims, values);
            let mut enc =
                StreamEncoder::new(Vec::new(), series_header()).expect("valid series header");
            let mut chunks = Vec::new();
            let mut actual = Vec::new();
            for t in 0..SERIES_STEPS {
                let chunk = slice_outer(&stacked, t, 1).expect("slice inside the series");
                let rec = enc.write_chunk(&chunk).expect("series chunk encodes");
                actual.push(rec.raw_len as f64 / rec.comp_len.max(1) as f64);
                chunks.push(chunk);
            }
            let encoded = enc.finish().expect("series stream finishes");
            Series {
                name: name.to_string(),
                raw_bytes: stacked.size_in_bytes(),
                encoded_bytes: encoded.len(),
                chunks,
                actual,
            }
        })
        .collect()
}

/// Largest point-wise error between two f32 buffers, or `None` when their
/// shapes differ.
pub fn max_abs_err(a: &Data, b: &Data) -> Option<f64> {
    let (x, y) = (a.as_f32().ok()?, b.as_f32().ok()?);
    if a.dims() != b.dims() {
        return None;
    }
    Some(
        x.iter()
            .zip(y)
            .map(|(p, q)| (p - q).abs() as f64)
            .fold(0.0, f64::max),
    )
}
