//! The `dpserve` wire codec: [`RequestSpec`] and result records as JSON.
//!
//! # Protocol reference
//!
//! A generation request (`POST /v1/generate`) is one JSON object mapping
//! 1:1 onto [`RequestSpec`]. Every field except `count` is optional and
//! defaults to the [`RequestSpec::new`] value; **unknown fields are
//! rejected**, so a typo cannot silently fall back to a default:
//!
//! ```json
//! {
//!   "count": 4,
//!   "first_index": 0,
//!   "seed": 7,
//!   "priority": 0,
//!   "deadline_ms": 5000,
//!   "sample_stride": 1,
//!   "max_attempts": 4,
//!   "repair_bowties": true,
//!   "rules": {"space_min": 60, "width_min": 60, "area_min": 4000,
//!             "area_max": 1500000, "exempt_border": true},
//!   "solver": {"target_width": 2048, "target_height": 2048},
//!   "donors": [{"topology": ["0110", "1111"], "dx": [512, 512, 512, 512],
//!               "dy": [1024, 1024]}],
//!   "conditioning": {"freeze_len": 256, "freeze_mask": "Af8A...",
//!                    "freeze_bits": "AAD/...", "avoid_motif": "isolated-cell",
//!                    "avoid_weight": 4.0}
//! }
//! ```
//!
//! The optional `conditioning` object carries the per-lane sampling
//! constraints. A frozen region travels as `freeze_len` (entry count)
//! plus `freeze_mask`/`freeze_bits`: the channel-major boolean vectors
//! packed LSB-first into bytes and base64-encoded (standard alphabet,
//! `=` padding). Both decoding and the bit packing are strict — padding
//! bits past `freeze_len` and non-canonical base64 are rejected, so one
//! wire string maps to exactly one region. Motif avoidance travels as
//! the preset name (`avoid_motif`, see `Motif::name`) and its guidance
//! `avoid_weight`. Either half may appear alone, but each half's fields
//! are all-or-nothing.
//!
//! The response is a newline-delimited JSON (NDJSON) stream: one
//! `{"type":"item", ...}` record per generated pattern in completion
//! order, then exactly one `{"type":"report", ...}` record. A pattern's
//! topology is encoded as rows of `0`/`1` characters, first row = top
//! (the same orientation as the paper figures and
//! `BitGrid::from_ascii`).
//!
//! Deadlines travel as whole milliseconds (`deadline_ms`), so a spec
//! whose deadline is not a whole number of milliseconds does not survive
//! a round-trip exactly; every other field is lossless, which the
//! proptest round-trip suite pins.

use crate::json::{self, Json};
use diffpattern::drc::DesignRules;
use diffpattern::geometry::BitGrid;
use diffpattern::legalize::{SolveStats, SolverConfig};
use diffpattern::squish::SquishPattern;
use diffpattern::{
    Conditioning, FrozenRegion, Generated, Motif, MotifGuidance, PipelineReport, Provenance,
    RequestSpec,
};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A wire-format violation: malformed JSON or a structurally invalid
/// document. Semantic spec problems (bad ruleset, zero count) are
/// [`ProtoError::InvalidSpec`] so the server can map them to a different
/// status code than syntax errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The body was not valid JSON.
    Json(json::ParseError),
    /// The document or one of its fields had the wrong JSON type.
    WrongType {
        /// Dotted path of the offending field.
        field: &'static str,
        /// What the protocol expects there.
        expected: &'static str,
    },
    /// A field name the protocol does not know (typo protection).
    UnknownField {
        /// Dotted path of the object the field appeared in (empty for
        /// the top level).
        at: &'static str,
        /// The offending name.
        field: String,
    },
    /// A required field was absent.
    MissingField {
        /// Dotted path of the absent field.
        field: &'static str,
    },
    /// A numeric field was outside its type's range.
    OutOfRange {
        /// Dotted path of the offending field.
        field: &'static str,
    },
    /// The spec parsed but is semantically invalid (zero count, a
    /// ruleset the DRC layer rejects, a donor that is not a valid squish
    /// pattern, ...). The string is the underlying error's display form.
    InvalidSpec(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "malformed JSON: {e}"),
            ProtoError::WrongType { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            ProtoError::UnknownField { at, field } => {
                if at.is_empty() {
                    write!(f, "unknown field `{field}`")
                } else {
                    write!(f, "unknown field `{field}` in `{at}`")
                }
            }
            ProtoError::MissingField { field } => write!(f, "missing required field `{field}`"),
            ProtoError::OutOfRange { field } => write!(f, "field `{field}` is out of range"),
            ProtoError::InvalidSpec(message) => write!(f, "invalid spec: {message}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<json::ParseError> for ProtoError {
    fn from(e: json::ParseError) -> Self {
        ProtoError::Json(e)
    }
}

impl ProtoError {
    /// The machine-readable error code the server puts on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Json(_) => "malformed_json",
            ProtoError::UnknownField { .. } => "unknown_field",
            ProtoError::WrongType { .. } | ProtoError::MissingField { .. } => "bad_request",
            ProtoError::OutOfRange { .. } => "bad_request",
            ProtoError::InvalidSpec(_) => "invalid_spec",
        }
    }

    /// Whether the failure is semantic (HTTP 422) rather than syntactic
    /// (HTTP 400).
    pub fn is_semantic(&self) -> bool {
        matches!(self, ProtoError::InvalidSpec(_))
    }
}

// ---------------------------------------------------------------------
// RequestSpec
// ---------------------------------------------------------------------

/// Serialises a spec to its canonical wire object (every field present,
/// donors included).
pub fn spec_to_json(spec: &RequestSpec) -> Json {
    let mut fields = vec![
        ("count".to_string(), Json::from(spec.count)),
        ("first_index".to_string(), Json::from(spec.first_index)),
        ("seed".to_string(), Json::from(spec.seed)),
        ("priority".to_string(), Json::from(spec.priority)),
        ("sample_stride".to_string(), Json::from(spec.sample_stride)),
        ("max_attempts".to_string(), Json::from(spec.max_attempts)),
        (
            "repair_bowties".to_string(),
            Json::Bool(spec.repair_bowties),
        ),
        ("rules".to_string(), rules_to_json(&spec.rules)),
        ("solver".to_string(), solver_to_json(&spec.solver)),
        (
            "donors".to_string(),
            Json::Arr(spec.donors.iter().map(pattern_to_json).collect()),
        ),
    ];
    if let Some(deadline) = spec.deadline {
        fields.push((
            "deadline_ms".to_string(),
            // A `Duration`'s millis fit i128 for ~10^25 years; saturate
            // rather than keep a truncating cast in the codec.
            Json::Int(i128::try_from(deadline.as_millis()).unwrap_or(i128::MAX)),
        ));
    }
    if !spec.conditioning.is_none() {
        fields.push((
            "conditioning".to_string(),
            conditioning_to_json(&spec.conditioning),
        ));
    }
    Json::Obj(fields)
}

/// Parses a wire object into a spec. Strict: unknown fields error, and
/// `count` must be present and at least 1 (the in-process API tolerates
/// `count == 0`; the protocol treats it as a caller mistake).
pub fn spec_from_json(v: &Json) -> Result<RequestSpec, ProtoError> {
    let Json::Obj(fields) = v else {
        return Err(ProtoError::WrongType {
            field: "(request)",
            expected: "an object",
        });
    };
    let mut spec = RequestSpec::new(0);
    let mut saw_count = false;
    for (key, value) in fields {
        match key.as_str() {
            "count" => {
                spec.count = usize_field(value, "count")?;
                saw_count = true;
            }
            "first_index" => spec.first_index = usize_field(value, "first_index")?,
            "seed" => spec.seed = u64_field(value, "seed")?,
            "priority" => spec.priority = i32_field(value, "priority")?,
            "deadline_ms" => {
                spec.deadline = Some(Duration::from_millis(u64_field(value, "deadline_ms")?));
            }
            "sample_stride" => spec.sample_stride = usize_field(value, "sample_stride")?,
            "max_attempts" => spec.max_attempts = usize_field(value, "max_attempts")?,
            "repair_bowties" => spec.repair_bowties = bool_field(value, "repair_bowties")?,
            "rules" => spec.rules = rules_from_json(value)?,
            "solver" => spec.solver = solver_from_json(value)?,
            "conditioning" => spec.conditioning = Arc::new(conditioning_from_json(value)?),
            "donors" => {
                let items = value.as_arr().ok_or(ProtoError::WrongType {
                    field: "donors",
                    expected: "an array",
                })?;
                let donors: Vec<SquishPattern> = items
                    .iter()
                    .map(pattern_from_json)
                    .collect::<Result<_, _>>()?;
                spec.donors = Arc::from(donors.into_boxed_slice());
            }
            other => {
                return Err(ProtoError::UnknownField {
                    at: "",
                    field: other.to_string(),
                })
            }
        }
    }
    if !saw_count {
        return Err(ProtoError::MissingField { field: "count" });
    }
    if spec.count == 0 {
        return Err(ProtoError::InvalidSpec(
            "count must be at least 1".to_string(),
        ));
    }
    Ok(spec)
}

fn rules_to_json(rules: &DesignRules) -> Json {
    Json::Obj(vec![
        ("space_min".to_string(), Json::from(rules.space_min())),
        ("width_min".to_string(), Json::from(rules.width_min())),
        ("area_min".to_string(), Json::Int(rules.area_min())),
        ("area_max".to_string(), Json::Int(rules.area_max())),
        (
            "exempt_border".to_string(),
            Json::Bool(rules.exempt_border()),
        ),
    ])
}

fn rules_from_json(v: &Json) -> Result<DesignRules, ProtoError> {
    let Json::Obj(fields) = v else {
        return Err(ProtoError::WrongType {
            field: "rules",
            expected: "an object",
        });
    };
    let mut builder = DesignRules::builder();
    let (mut area_min, mut area_max) = {
        let std = DesignRules::standard();
        (std.area_min(), std.area_max())
    };
    for (key, value) in fields {
        match key.as_str() {
            "space_min" => builder = builder.space_min(i64_field(value, "rules.space_min")?),
            "width_min" => builder = builder.width_min(i64_field(value, "rules.width_min")?),
            "area_min" => {
                area_min = value.as_int().ok_or(ProtoError::WrongType {
                    field: "rules.area_min",
                    expected: "an integer",
                })?;
            }
            "area_max" => {
                area_max = value.as_int().ok_or(ProtoError::WrongType {
                    field: "rules.area_max",
                    expected: "an integer",
                })?;
            }
            "exempt_border" => {
                builder = builder.exempt_border(bool_field(value, "rules.exempt_border")?)
            }
            other => {
                return Err(ProtoError::UnknownField {
                    at: "rules",
                    field: other.to_string(),
                })
            }
        }
    }
    builder
        .area_range(area_min, area_max)
        .build()
        .map_err(|e| ProtoError::InvalidSpec(e.to_string()))
}

fn solver_to_json(solver: &SolverConfig) -> Json {
    Json::Obj(vec![
        ("target_width".to_string(), Json::from(solver.target_width)),
        (
            "target_height".to_string(),
            Json::from(solver.target_height),
        ),
    ])
}

fn solver_from_json(v: &Json) -> Result<SolverConfig, ProtoError> {
    let Json::Obj(fields) = v else {
        return Err(ProtoError::WrongType {
            field: "solver",
            expected: "an object",
        });
    };
    let mut solver = SolverConfig::for_window(2048, 2048);
    for (key, value) in fields {
        match key.as_str() {
            "target_width" => solver.target_width = i64_field(value, "solver.target_width")?,
            "target_height" => solver.target_height = i64_field(value, "solver.target_height")?,
            other => {
                return Err(ProtoError::UnknownField {
                    at: "solver",
                    field: other.to_string(),
                })
            }
        }
    }
    Ok(solver)
}

// ---------------------------------------------------------------------
// Conditioning
// ---------------------------------------------------------------------

/// Serialises a non-empty conditioning (see the module docs for the
/// field semantics). [`spec_to_json`] omits the object entirely for
/// [`Conditioning::none`].
fn conditioning_to_json(cond: &Conditioning) -> Json {
    let mut fields = Vec::new();
    if let Some(region) = cond.frozen() {
        fields.push(("freeze_len".to_string(), Json::from(region.len())));
        fields.push((
            "freeze_mask".to_string(),
            Json::Str(bools_to_b64(region.mask())),
        ));
        fields.push((
            "freeze_bits".to_string(),
            Json::Str(bools_to_b64(region.bits())),
        ));
    }
    if let Some(guidance) = cond.avoid() {
        fields.push((
            "avoid_motif".to_string(),
            Json::Str(guidance.motif().name().to_string()),
        ));
        fields.push(("avoid_weight".to_string(), Json::Float(guidance.weight())));
    }
    Json::Obj(fields)
}

/// Parses a `conditioning` object. Strict like every other spec object:
/// unknown fields error, each constraint's fields are all-or-nothing,
/// and the base64 vectors must decode canonically to `freeze_len` bits.
fn conditioning_from_json(v: &Json) -> Result<Conditioning, ProtoError> {
    let Json::Obj(fields) = v else {
        return Err(ProtoError::WrongType {
            field: "conditioning",
            expected: "an object",
        });
    };
    let mut freeze_len: Option<usize> = None;
    let mut freeze_mask: Option<&str> = None;
    let mut freeze_bits: Option<&str> = None;
    let mut avoid_motif: Option<&str> = None;
    let mut avoid_weight: Option<f64> = None;
    for (key, value) in fields {
        match key.as_str() {
            "freeze_len" => {
                freeze_len = Some(usize_field(value, "conditioning.freeze_len")?);
            }
            "freeze_mask" => {
                freeze_mask = Some(value.as_str().ok_or(ProtoError::WrongType {
                    field: "conditioning.freeze_mask",
                    expected: "a base64 string",
                })?);
            }
            "freeze_bits" => {
                freeze_bits = Some(value.as_str().ok_or(ProtoError::WrongType {
                    field: "conditioning.freeze_bits",
                    expected: "a base64 string",
                })?);
            }
            "avoid_motif" => {
                avoid_motif = Some(value.as_str().ok_or(ProtoError::WrongType {
                    field: "conditioning.avoid_motif",
                    expected: "a motif preset name",
                })?);
            }
            "avoid_weight" => {
                avoid_weight = Some(value.as_f64().ok_or(ProtoError::WrongType {
                    field: "conditioning.avoid_weight",
                    expected: "a number",
                })?);
            }
            other => {
                return Err(ProtoError::UnknownField {
                    at: "conditioning",
                    field: other.to_string(),
                })
            }
        }
    }
    let mut cond = Conditioning::none();
    match (freeze_len, freeze_mask, freeze_bits) {
        (Some(len), Some(mask), Some(bits)) => {
            let mask = bools_from_b64(mask, len, "conditioning.freeze_mask")?;
            let bits = bools_from_b64(bits, len, "conditioning.freeze_bits")?;
            let region = FrozenRegion::new(mask, bits)
                .map_err(|e| ProtoError::InvalidSpec(e.to_string()))?;
            cond = cond.with_frozen(region);
        }
        (None, None, None) => {}
        (len, mask, bits) => {
            let field = if len.is_none() {
                "conditioning.freeze_len"
            } else if mask.is_none() {
                "conditioning.freeze_mask"
            } else {
                let _ = bits;
                "conditioning.freeze_bits"
            };
            return Err(ProtoError::MissingField { field });
        }
    }
    match (avoid_motif, avoid_weight) {
        (Some(name), Some(weight)) => {
            let motif = Motif::from_name(name)
                .ok_or_else(|| ProtoError::InvalidSpec(format!("unknown motif preset `{name}`")))?;
            let guidance = MotifGuidance::new(motif, weight)
                .map_err(|e| ProtoError::InvalidSpec(e.to_string()))?;
            cond = cond.with_avoid(guidance);
        }
        (None, None) => {}
        (Some(_), None) => {
            return Err(ProtoError::MissingField {
                field: "conditioning.avoid_weight",
            })
        }
        (None, Some(_)) => {
            return Err(ProtoError::MissingField {
                field: "conditioning.avoid_motif",
            })
        }
    }
    Ok(cond)
}

// ---------------------------------------------------------------------
// Base64 (standard alphabet, `=` padding, canonical-only decoding)
// ---------------------------------------------------------------------

const B64_TABLE: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Packs a boolean vector LSB-first into bytes and base64-encodes them.
fn bools_to_b64(bools: &[bool]) -> String {
    let mut bytes = vec![0u8; bools.len().div_ceil(8)];
    for (i, &b) in bools.iter().enumerate() {
        if b {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    b64_encode(&bytes)
}

/// Inverse of [`bools_to_b64`] for a known bit count. Rejects anything
/// but the one canonical encoding: wrong byte count, non-canonical
/// base64, or set bits past `len` in the final byte.
fn bools_from_b64(s: &str, len: usize, field: &'static str) -> Result<Vec<bool>, ProtoError> {
    let bytes = b64_decode(s)
        .ok_or_else(|| ProtoError::InvalidSpec(format!("`{field}` is not canonical base64")))?;
    if bytes.len() != len.div_ceil(8) {
        return Err(ProtoError::InvalidSpec(format!(
            "`{field}` decodes to {} bytes but freeze_len {len} needs {}",
            bytes.len(),
            len.div_ceil(8)
        )));
    }
    if !len.is_multiple_of(8) && bytes[len / 8] >> (len % 8) != 0 {
        return Err(ProtoError::InvalidSpec(format!(
            "`{field}` has set bits past freeze_len {len}"
        )));
    }
    Ok((0..len).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
}

/// The base64 alphabet character for the 6-bit group at `shift`.
fn b64_char(n: u32, shift: u32) -> char {
    // Masked to 6 bits, so the index is always in-table and the u32 →
    // usize conversion cannot fail on any supported target.
    let idx = usize::try_from((n >> shift) & 63).unwrap_or(0);
    char::from(B64_TABLE[idx])
}

/// The low 8 bits of a reassembled base64 group.
fn b64_byte(n: u32, shift: u32) -> u8 {
    // dp-lint: allow(truncating-cast-in-codec): masked to 8 bits first — truncation is the operation
    ((n >> shift) & 0xFF) as u8
}

fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let n = (u32::from(chunk[0]) << 16)
            | (u32::from(chunk.get(1).copied().unwrap_or(0)) << 8)
            | u32::from(chunk.get(2).copied().unwrap_or(0));
        out.push(b64_char(n, 18));
        out.push(b64_char(n, 12));
        out.push(if chunk.len() > 1 { b64_char(n, 6) } else { '=' });
        out.push(if chunk.len() > 2 { b64_char(n, 0) } else { '=' });
    }
    out
}

fn b64_value(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some(u32::from(c - b'A')),
        b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Strict decoder: length must be a multiple of 4, `=` only as final
/// padding, and the bits a padded chunk drops must be zero (so every
/// byte string has exactly one accepted encoding).
fn b64_decode(s: &str) -> Option<Vec<u8>> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(4) {
        return None;
    }
    let chunks = b.len() / 4;
    let mut out = Vec::with_capacity(chunks * 3);
    for (i, chunk) in b.chunks(4).enumerate() {
        let pad = if i + 1 == chunks {
            chunk.iter().rev().take_while(|&&c| c == b'=').count()
        } else {
            0
        };
        if pad > 2 {
            return None;
        }
        let mut n = 0u32;
        for &c in &chunk[..4 - pad] {
            n = (n << 6) | b64_value(c)?;
        }
        // `pad` is at most 2 (checked above), so the conversion is total.
        n <<= 6 * u32::try_from(pad).unwrap_or(0);
        out.push(b64_byte(n, 16));
        if pad < 2 {
            out.push(b64_byte(n, 8));
        }
        if pad < 1 {
            out.push(b64_byte(n, 0));
        }
        match pad {
            1 if n & 0xFF != 0 => return None,
            2 if n & 0xFFFF != 0 => return None,
            _ => {}
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------

/// Encodes a pattern: topology rows top-first as `0`/`1` strings, plus
/// the Δx/Δy interval vectors in nm.
pub fn pattern_to_json(pattern: &SquishPattern) -> Json {
    let grid = pattern.topology();
    let rows: Vec<Json> = (0..grid.height())
        .rev() // first wire row = top row, like `BitGrid::from_ascii`
        .map(|row| {
            Json::Str(
                (0..grid.width())
                    .map(|col| if grid.get(col, row) { '1' } else { '0' })
                    .collect(),
            )
        })
        .collect();
    Json::Obj(vec![
        ("topology".to_string(), Json::Arr(rows)),
        (
            "dx".to_string(),
            Json::Arr(pattern.dx().iter().map(|&d| Json::from(d)).collect()),
        ),
        (
            "dy".to_string(),
            Json::Arr(pattern.dy().iter().map(|&d| Json::from(d)).collect()),
        ),
    ])
}

/// Decodes a pattern, re-validating through [`SquishPattern::new`] so a
/// malformed donor (ragged rows, non-positive Δ, shape mismatch) is a
/// typed error, never a panic downstream.
pub fn pattern_from_json(v: &Json) -> Result<SquishPattern, ProtoError> {
    let Json::Obj(fields) = v else {
        return Err(ProtoError::WrongType {
            field: "pattern",
            expected: "an object",
        });
    };
    let mut rows: Option<&[Json]> = None;
    let mut dx: Option<Vec<i64>> = None;
    let mut dy: Option<Vec<i64>> = None;
    for (key, value) in fields {
        match key.as_str() {
            "topology" => {
                rows = Some(value.as_arr().ok_or(ProtoError::WrongType {
                    field: "pattern.topology",
                    expected: "an array of row strings",
                })?);
            }
            "dx" => dx = Some(coord_vec(value, "pattern.dx")?),
            "dy" => dy = Some(coord_vec(value, "pattern.dy")?),
            other => {
                return Err(ProtoError::UnknownField {
                    at: "pattern",
                    field: other.to_string(),
                })
            }
        }
    }
    let rows = rows.ok_or(ProtoError::MissingField {
        field: "pattern.topology",
    })?;
    let dx = dx.ok_or(ProtoError::MissingField {
        field: "pattern.dx",
    })?;
    let dy = dy.ok_or(ProtoError::MissingField {
        field: "pattern.dy",
    })?;
    let mut art = String::new();
    for row in rows {
        let row = row.as_str().ok_or(ProtoError::WrongType {
            field: "pattern.topology",
            expected: "an array of row strings",
        })?;
        if row.is_empty() || !row.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(ProtoError::InvalidSpec(
                "topology rows must be non-empty strings of 0/1".to_string(),
            ));
        }
        art.push_str(row);
        art.push('\n');
    }
    let grid = BitGrid::from_ascii(&art).map_err(|e| ProtoError::InvalidSpec(e.to_string()))?;
    SquishPattern::new(grid, dx, dy).map_err(|e| ProtoError::InvalidSpec(e.to_string()))
}

fn coord_vec(v: &Json, field: &'static str) -> Result<Vec<i64>, ProtoError> {
    v.as_arr()
        .ok_or(ProtoError::WrongType {
            field,
            expected: "an array of integers",
        })?
        .iter()
        .map(|item| i64_field(item, field))
        .collect()
}

// ---------------------------------------------------------------------
// Stream records
// ---------------------------------------------------------------------

/// One NDJSON `item` record.
pub fn item_to_json(generated: &Generated) -> Json {
    let p = &generated.provenance;
    Json::Obj(vec![
        ("type".to_string(), Json::Str("item".to_string())),
        ("index".to_string(), Json::from(p.index)),
        ("seed".to_string(), Json::from(p.seed)),
        ("attempts".to_string(), Json::from(p.attempts)),
        ("repaired".to_string(), Json::Bool(p.repaired)),
        (
            "solve".to_string(),
            Json::Obj(vec![
                ("iterations".to_string(), Json::from(p.solve.iterations)),
                ("restarts".to_string(), Json::from(p.solve.restarts)),
            ]),
        ),
        ("pattern".to_string(), pattern_to_json(&generated.pattern)),
    ])
}

/// Decodes an `item` record back into the in-process type — the half the
/// byte-equality tests use to compare wire output with
/// `PatternService::generate`.
pub fn item_from_json(v: &Json) -> Result<Generated, ProtoError> {
    if v.get("type").and_then(Json::as_str) != Some("item") {
        return Err(ProtoError::WrongType {
            field: "type",
            expected: "\"item\"",
        });
    }
    let pattern = pattern_from_json(
        v.get("pattern")
            .ok_or(ProtoError::MissingField { field: "pattern" })?,
    )?;
    let solve = v
        .get("solve")
        .ok_or(ProtoError::MissingField { field: "solve" })?;
    let provenance = Provenance {
        index: usize_field(
            v.get("index")
                .ok_or(ProtoError::MissingField { field: "index" })?,
            "index",
        )?,
        seed: u64_field(
            v.get("seed")
                .ok_or(ProtoError::MissingField { field: "seed" })?,
            "seed",
        )?,
        attempts: usize_field(
            v.get("attempts")
                .ok_or(ProtoError::MissingField { field: "attempts" })?,
            "attempts",
        )?,
        repaired: bool_field(
            v.get("repaired")
                .ok_or(ProtoError::MissingField { field: "repaired" })?,
            "repaired",
        )?,
        solve: SolveStats {
            iterations: usize_field(
                solve.get("iterations").ok_or(ProtoError::MissingField {
                    field: "solve.iterations",
                })?,
                "solve.iterations",
            )?,
            restarts: usize_field(
                solve.get("restarts").ok_or(ProtoError::MissingField {
                    field: "solve.restarts",
                })?,
                "solve.restarts",
            )?,
        },
    };
    Ok(Generated {
        pattern,
        provenance,
    })
}

/// The final NDJSON `report` record closing every stream.
pub fn report_to_json(
    requested: usize,
    delivered: usize,
    deadline_expired: bool,
    report: &PipelineReport,
    error: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("type".to_string(), Json::Str("report".to_string())),
        ("requested".to_string(), Json::from(requested)),
        ("delivered".to_string(), Json::from(delivered)),
        ("deadline_expired".to_string(), Json::Bool(deadline_expired)),
        (
            "report".to_string(),
            Json::Obj(vec![
                (
                    "topologies_sampled".to_string(),
                    Json::from(report.topologies_sampled),
                ),
                (
                    "prefilter_rejected".to_string(),
                    Json::from(report.prefilter_rejected),
                ),
                (
                    "prefilter_repaired".to_string(),
                    Json::from(report.prefilter_repaired),
                ),
                (
                    "solver_failures".to_string(),
                    Json::from(report.solver_failures),
                ),
                (
                    "legal_patterns".to_string(),
                    Json::from(report.legal_patterns),
                ),
                ("shortfall".to_string(), Json::from(report.shortfall)),
            ]),
        ),
    ];
    if let Some(error) = error {
        fields.push(("error".to_string(), Json::Str(error.to_string())));
    }
    Json::Obj(fields)
}

/// Decodes a `report` record: `(requested, delivered, deadline_expired,
/// report, error)`.
pub fn report_from_json(
    v: &Json,
) -> Result<(usize, usize, bool, PipelineReport, Option<String>), ProtoError> {
    if v.get("type").and_then(Json::as_str) != Some("report") {
        return Err(ProtoError::WrongType {
            field: "type",
            expected: "\"report\"",
        });
    }
    let inner = v
        .get("report")
        .ok_or(ProtoError::MissingField { field: "report" })?;
    let field = |name: &'static str| -> Result<usize, ProtoError> {
        usize_field(
            inner
                .get(name)
                .ok_or(ProtoError::MissingField { field: "report.*" })?,
            "report.*",
        )
    };
    let report = PipelineReport {
        topologies_sampled: field("topologies_sampled")?,
        prefilter_rejected: field("prefilter_rejected")?,
        prefilter_repaired: field("prefilter_repaired")?,
        solver_failures: field("solver_failures")?,
        legal_patterns: field("legal_patterns")?,
        shortfall: field("shortfall")?,
    };
    Ok((
        usize_field(
            v.get("requested")
                .ok_or(ProtoError::MissingField { field: "requested" })?,
            "requested",
        )?,
        usize_field(
            v.get("delivered")
                .ok_or(ProtoError::MissingField { field: "delivered" })?,
            "delivered",
        )?,
        bool_field(
            v.get("deadline_expired").ok_or(ProtoError::MissingField {
                field: "deadline_expired",
            })?,
            "deadline_expired",
        )?,
        report,
        v.get("error").and_then(Json::as_str).map(str::to_string),
    ))
}

/// A structured error body (`{"type":"error","code":...,"message":...}`).
pub fn error_to_json(code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("type".to_string(), Json::Str("error".to_string())),
        ("code".to_string(), Json::Str(code.to_string())),
        ("message".to_string(), Json::Str(message.to_string())),
    ])
}

// ---------------------------------------------------------------------
// Typed field extraction
// ---------------------------------------------------------------------

fn int_in_range(v: &Json, field: &'static str, min: i128, max: i128) -> Result<i128, ProtoError> {
    let i = v.as_int().ok_or(ProtoError::WrongType {
        field,
        expected: "an integer",
    })?;
    if i < min || i > max {
        return Err(ProtoError::OutOfRange { field });
    }
    Ok(i)
}

fn usize_field(v: &Json, field: &'static str) -> Result<usize, ProtoError> {
    let i = int_in_range(v, field, 0, i128::try_from(usize::MAX).unwrap_or(i128::MAX))?;
    usize::try_from(i).map_err(|_| ProtoError::OutOfRange { field })
}

fn u64_field(v: &Json, field: &'static str) -> Result<u64, ProtoError> {
    let i = int_in_range(v, field, 0, i128::from(u64::MAX))?;
    u64::try_from(i).map_err(|_| ProtoError::OutOfRange { field })
}

fn i64_field(v: &Json, field: &'static str) -> Result<i64, ProtoError> {
    let i = int_in_range(v, field, i128::from(i64::MIN), i128::from(i64::MAX))?;
    i64::try_from(i).map_err(|_| ProtoError::OutOfRange { field })
}

fn i32_field(v: &Json, field: &'static str) -> Result<i32, ProtoError> {
    let i = int_in_range(v, field, i128::from(i32::MIN), i128::from(i32::MAX))?;
    i32::try_from(i).map_err(|_| ProtoError::OutOfRange { field })
}

fn bool_field(v: &Json, field: &'static str) -> Result<bool, ProtoError> {
    v.as_bool().ok_or(ProtoError::WrongType {
        field,
        expected: "a boolean",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_eq(a: &RequestSpec, b: &RequestSpec) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.first_index, b.first_index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.priority, b.priority);
        assert_eq!(a.deadline, b.deadline);
        assert_eq!(a.sample_stride, b.sample_stride);
        assert_eq!(a.max_attempts, b.max_attempts);
        assert_eq!(a.repair_bowties, b.repair_bowties);
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.donors.as_ref(), b.donors.as_ref());
        assert_eq!(a.conditioning, b.conditioning);
    }

    #[test]
    fn default_spec_round_trips() {
        let spec = RequestSpec::new(3).seed(u64::MAX);
        let wire = spec_to_json(&spec).to_string();
        let back = spec_from_json(&json::parse(&wire).unwrap()).unwrap();
        spec_eq(&spec, &back);
    }

    #[test]
    fn spec_with_deadline_and_donor_round_trips() {
        let grid = BitGrid::from_ascii("0110\n1111").unwrap();
        let donor = SquishPattern::new(grid, vec![512; 4], vec![1024; 2]).unwrap();
        let mut spec = RequestSpec::new(2)
            .deadline(Duration::from_millis(750))
            .first_index(40);
        spec.donors = Arc::from([donor]);
        let wire = spec_to_json(&spec).to_string();
        let back = spec_from_json(&json::parse(&wire).unwrap()).unwrap();
        spec_eq(&spec, &back);
    }

    #[test]
    fn minimal_request_uses_defaults() {
        let spec = spec_from_json(&json::parse(r#"{"count": 5}"#).unwrap()).unwrap();
        let default = RequestSpec::new(5);
        spec_eq(&spec, &default);
    }

    #[test]
    fn unknown_and_invalid_fields_are_typed_errors() {
        let cases = [
            (r#"{"count": 1, "cuont": 2}"#, "unknown_field"),
            (
                r#"{"count": 1, "rules": {"spcae_min": 60}}"#,
                "unknown_field",
            ),
            (r#"{"seed": 3}"#, "bad_request"),
            (r#"{"count": 0}"#, "invalid_spec"),
            (r#"{"count": -1}"#, "bad_request"),
            (r#"{"count": 1, "seed": "seven"}"#, "bad_request"),
            (
                r#"{"count": 1, "rules": {"space_min": -5}}"#,
                "invalid_spec",
            ),
            (r#"{"count": 1, "precision": "exact"}"#, "unknown_field"),
            (
                r#"{"count": 1, "donors": [{"topology": ["01", "0"], "dx": [1, 1], "dy": [1, 1]}]}"#,
                "invalid_spec",
            ),
        ];
        for (body, code) in cases {
            let e = spec_from_json(&json::parse(body).unwrap()).unwrap_err();
            assert_eq!(e.code(), code, "{body} -> {e}");
        }
    }

    #[test]
    fn solver_object_carries_only_the_window() {
        let wire = spec_to_json(&RequestSpec::new(1));
        let Some(Json::Obj(solver)) = wire.get("solver") else {
            panic!("no solver object in {wire}");
        };
        let keys: Vec<&str> = solver.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["target_width", "target_height"]);
        // The solver's budget is fixed, not client input; `tests/serve.rs`
        // sends the iteration count over a live connection.
        let body = r#"{"count": 1, "solver": {"margin": 2.0}}"#;
        let e = spec_from_json(&json::parse(body).unwrap()).unwrap_err();
        assert_eq!(e.code(), "unknown_field", "{body} -> {e}");
    }

    #[test]
    fn base64_round_trips_and_rejects_non_canonical() {
        for len in 0usize..=67 {
            let bools: Vec<bool> = (0..len).map(|i| (i * 7 + len) % 3 == 0).collect();
            let wire = bools_to_b64(&bools);
            assert_eq!(bools_from_b64(&wire, len, "t").unwrap(), bools, "len {len}");
        }
        // Non-canonical padding bits: "AB==" carries set bits the single
        // decoded byte drops.
        assert!(b64_decode("AQ==").is_some());
        assert!(b64_decode("AB==").is_none());
        assert!(b64_decode("AAA").is_none(), "length not a multiple of 4");
        assert!(b64_decode("A=AA").is_none(), "interior padding");
        assert!(b64_decode("AA!A").is_none(), "bad alphabet");
        // A set bit past freeze_len inside the final byte is rejected.
        let wire = bools_to_b64(&[true, true, true]);
        assert!(bools_from_b64(&wire, 2, "t").is_err());
    }

    #[test]
    fn conditioned_spec_round_trips() {
        let mask: Vec<bool> = (0..96).map(|i| i % 5 == 0).collect();
        let bits: Vec<bool> = (0..96).map(|i| i % 2 == 0).collect();
        let cond = Conditioning::none()
            .with_frozen(FrozenRegion::new(mask.clone(), bits.clone()).unwrap())
            .with_avoid(MotifGuidance::new(Motif::IsolatedCell, 3.25).unwrap());
        let spec = RequestSpec::new(2).conditioning(cond);
        let wire = spec_to_json(&spec).to_string();
        let back = spec_from_json(&json::parse(&wire).unwrap()).unwrap();
        spec_eq(&spec, &back);
        let region = back.conditioning.frozen().unwrap();
        assert_eq!(region.mask(), &mask[..]);
        assert_eq!(region.bits(), &bits[..]);
        let guidance = back.conditioning.avoid().unwrap();
        assert_eq!(guidance.motif(), Motif::IsolatedCell);
        assert_eq!(guidance.weight().to_bits(), 3.25f64.to_bits());
    }

    #[test]
    fn unconditioned_spec_omits_the_conditioning_object() {
        let wire = spec_to_json(&RequestSpec::new(1)).to_string();
        assert!(!wire.contains("conditioning"));
    }

    #[test]
    fn bad_conditioning_objects_are_typed_errors() {
        let cases = [
            // Unknown field inside the object.
            (
                r#"{"count": 1, "conditioning": {"freze_len": 4}}"#,
                "unknown_field",
            ),
            // Frozen fields are all-or-nothing.
            (
                r#"{"count": 1, "conditioning": {"freeze_len": 4}}"#,
                "bad_request",
            ),
            (
                r#"{"count": 1, "conditioning": {"freeze_mask": "Dw==", "freeze_bits": "Cw=="}}"#,
                "bad_request",
            ),
            // So are the avoidance fields.
            (
                r#"{"count": 1, "conditioning": {"avoid_motif": "isolated-cell"}}"#,
                "bad_request",
            ),
            (
                r#"{"count": 1, "conditioning": {"avoid_weight": 2.0}}"#,
                "bad_request",
            ),
            // Semantic failures: bad preset, bad weight, bad base64,
            // length mismatch.
            (
                r#"{"count": 1, "conditioning": {"avoid_motif": "dense-blob", "avoid_weight": 2.0}}"#,
                "invalid_spec",
            ),
            (
                r#"{"count": 1, "conditioning": {"avoid_motif": "isolated-cell", "avoid_weight": -1.0}}"#,
                "invalid_spec",
            ),
            (
                r#"{"count": 1, "conditioning": {"freeze_len": 4, "freeze_mask": "!!", "freeze_bits": "Cw=="}}"#,
                "invalid_spec",
            ),
            (
                r#"{"count": 1, "conditioning": {"freeze_len": 400, "freeze_mask": "Dw==", "freeze_bits": "Cw=="}}"#,
                "invalid_spec",
            ),
            // Wrong JSON types.
            (r#"{"count": 1, "conditioning": "frozen"}"#, "bad_request"),
            (
                r#"{"count": 1, "conditioning": {"freeze_len": 4, "freeze_mask": 15, "freeze_bits": "Cw=="}}"#,
                "bad_request",
            ),
        ];
        for (body, code) in cases {
            let e = spec_from_json(&json::parse(body).unwrap()).unwrap_err();
            assert_eq!(e.code(), code, "{body} -> {e}");
        }
    }

    #[test]
    fn item_and_report_records_round_trip() {
        let grid = BitGrid::from_ascii("10\n01").unwrap();
        let generated = Generated {
            pattern: SquishPattern::new(grid, vec![7, 9], vec![3, 5]).unwrap(),
            provenance: Provenance {
                index: 4,
                seed: 0xDEAD_BEEF,
                attempts: 2,
                repaired: true,
                solve: SolveStats {
                    iterations: 17,
                    restarts: 1,
                },
            },
        };
        let back =
            item_from_json(&json::parse(&item_to_json(&generated).to_string()).unwrap()).unwrap();
        assert_eq!(generated, back);

        let report = PipelineReport {
            topologies_sampled: 9,
            prefilter_rejected: 1,
            prefilter_repaired: 2,
            solver_failures: 3,
            legal_patterns: 4,
            shortfall: 5,
        };
        let wire = report_to_json(6, 4, true, &report, Some("boom")).to_string();
        let (requested, delivered, expired, back, error) =
            report_from_json(&json::parse(&wire).unwrap()).unwrap();
        assert_eq!((requested, delivered, expired), (6, 4, true));
        assert_eq!(back, report);
        assert_eq!(error.as_deref(), Some("boom"));
    }
}
