//! Content-addressed stage cache: memoize flow stages across sweep points
//! and runs (DESIGN §14).
//!
//! [`crate::run_flow`] is an explicit DAG of six stages ([`Stage`]); each
//! edge carries a hashable artifact. A stage's *input key* is a canonical
//! string over (upstream artifact addresses, the stage-relevant
//! [`FlowConfig`] fields, the library signature, seed); its *output
//! payload* is a canonical serialization of the artifact plus the stage's
//! captured span/metric trace ([`ffet_obs::capture`]). Payloads are stored
//! content-addressed under `results/ckpt/objects/`: the address is
//! `blob_hash` of the body, checked before the body is decoded, so a
//! corrupt ("poisoned") blob degrades to a deterministic miss — never a
//! wrong artifact. A `<keyhash>.key` link file maps input keys to payload
//! addresses.
//!
//! Invalidation is purely structural: any change to a stage's inputs —
//! upstream payload bytes, config field, library, seed, payload schema
//! ([`PAYLOAD_VERSION`]) — changes the key, so stale entries are simply
//! never looked up again (`ffet cache gc` reclaims them). Faulted runs
//! bypass the cache entirely (`run_flow` passes no cache when the fault
//! plan is non-empty), so fault-injected artifacts can neither hit nor
//! pollute it; recovery-ladder attempts perturb seed/utilization/reroute
//! budget and therefore key differently by construction.
//!
//! Determinism (§7): a cache hit rehydrates the artifact *and* its
//! captured trace byte-identically, so metric values and span-tree shape
//! are unchanged warm vs cold. Only the `cached` span attribute (hit/miss
//! provenance) and the process-global [`ffet_obs::cache_stats`] registry —
//! both outside the deterministic plane — differ.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::ckpt::{atomic_write_unique, hash_hex};
use crate::flow::FlowConfig;
use ffet_cells::CellId;
use ffet_geom::{Orientation, Point, Rect};
use ffet_lefdef::{Def, DefComponent, DefConnection, DefNet, DefSpecialNet, DefVia, DefWire};
use ffet_netlist::{InstId, Instance, Net, NetId, Netlist, PinRef, Port, PortDirection};
use ffet_obs::record;
use ffet_obs::{AttrValue, Histogram, MetricsSnapshot, PointData, SpanEvent};
use ffet_pnr::{
    ClockTree, Floorplan, Placement, PnrResult, PowerPlan, RoutedNet, RoutingResult, Row, TapCell,
};
use ffet_rcx::{NetParasitics, SinkParasitics};
use ffet_sta::{PathStep, PowerReport, TimingReport};
use ffet_tech::{LayerId, Side};
use ffet_verify::{Severity, SignoffReport, Violation};

/// Payload/key schema version: bumped on any change to the canonical
/// serialization or key derivation, which invalidates every existing entry
/// (old blobs become unreachable garbage for `gc`, never wrong answers).
pub const PAYLOAD_VERSION: u64 = 2;

/// Environment variable enabling the stage cache for driver binaries
/// (`repro`, benches). Unset, empty or `0` → disabled; `1` → the default
/// root [`DEFAULT_ROOT`]; anything else → that path. Tests set
/// [`crate::FlowConfig::stage_cache`] directly instead (env is process-wide
/// and `cargo test` is multi-threaded).
pub const STAGE_CACHE_ENV: &str = "FFET_STAGE_CACHE";

/// Default cache root, relative to the run's working directory.
pub const DEFAULT_ROOT: &str = "results/ckpt/objects";

/// Manifest file inside the cache root: append-only size/stage accounting
/// for `ffet cache stats`/`gc` (advisory — the blobs themselves are ground
/// truth; see [`stats`]).
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// The stage-cache root from [`STAGE_CACHE_ENV`], if enabled.
#[must_use]
pub fn root_from_env() -> Option<PathBuf> {
    let value = std::env::var(STAGE_CACHE_ENV).ok()?;
    match value.trim() {
        "" | "0" => None,
        "1" => Some(PathBuf::from(DEFAULT_ROOT)),
        path => Some(PathBuf::from(path)),
    }
}

/// The six flow stages, in pipeline order — the nodes of the stage DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Synthesis-lite (fanout buffering + drive sizing).
    Synth,
    /// Floorplan → powerplan → place → CTS → dual-sided route.
    Pnr,
    /// Dual-sided DEF merge.
    Merge,
    /// Static signoff (lint + DRC + LVS-lite).
    Signoff,
    /// Dual-sided RC extraction.
    Rcx,
    /// STA + power.
    Sta,
}

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Synth,
        Stage::Pnr,
        Stage::Merge,
        Stage::Signoff,
        Stage::Rcx,
        Stage::Sta,
    ];

    /// Stage name as used in cache keys, event names and the manifest.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Synth => "synth",
            Stage::Pnr => "pnr",
            Stage::Merge => "merge",
            Stage::Signoff => "signoff",
            Stage::Rcx => "rcx",
            Stage::Sta => "sta",
        }
    }

    /// Upstream stages whose payload addresses enter this stage's key —
    /// the DAG edges. `Synth` additionally keys on the input netlist hash,
    /// and every stage keys on its slice of the config (see the `*_key`
    /// functions).
    #[must_use]
    pub fn deps(self) -> &'static [Stage] {
        match self {
            Stage::Synth => &[],
            Stage::Pnr => &[Stage::Synth],
            Stage::Merge => &[Stage::Pnr],
            Stage::Signoff => &[Stage::Pnr, Stage::Merge],
            Stage::Rcx => &[Stage::Pnr, Stage::Merge],
            Stage::Sta => &[Stage::Pnr, Stage::Rcx],
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical codec
// ---------------------------------------------------------------------------
//
// A deliberately boring token stream: every scalar is one whitespace-
// terminated token, floats are the hex of their IEEE bits (bit-exact round
// trip), strings are length-prefixed raw bytes. Canonical by construction —
// the same value always encodes to the same bytes, which is what makes
// content addressing work. Decoding is total: any malformed input yields
// `None`, which the cache treats as a miss.
//
// The scalar writers and readers work on bytes: no `core::fmt` on the way
// out, one pass per token on the way in (DESIGN §14.5). They accept exactly
// the token forms `str::parse`/`u64::from_str_radix` accept; the tests
// against the `reference` oracle at the end of this file pin that.
//
// Above the scalars, every payload type implements [`Codec`] once: its
// `enc` and `dec` walk the same token order, so a type's payload grammar is
// written in one place (DESIGN §14.2).

/// Canonical payload encoder.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

/// Lowercase hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl Enc {
    /// An encoder with nothing written.
    fn empty() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Starts a payload for `stage` (version + stage tag prefix).
    fn new(stage: &str) -> Enc {
        let mut e = Enc::empty();
        e.u(PAYLOAD_VERSION);
        e.s(stage);
        e
    }

    /// Appends `bytes`; every writer goes through here.
    #[inline(always)]
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    #[inline(always)]
    fn u(&mut self, v: u64) {
        self.decimal(v, b' ');
    }

    #[inline(always)]
    fn i(&mut self, v: i64) {
        if v < 0 {
            self.put(b"-");
        }
        self.decimal(v.unsigned_abs(), b' ');
    }

    fn i128v(&mut self, v: i128) {
        self.put(format!("{v} ").as_bytes());
    }

    #[inline(always)]
    fn f(&mut self, v: f64) {
        let bits = v.to_bits();
        let mut token = [b' '; 17];
        for (k, slot) in token[..16].iter_mut().enumerate() {
            *slot = HEX_DIGITS[(bits >> (60 - 4 * k) & 0xF) as usize];
        }
        self.put(&token);
    }

    #[inline(always)]
    fn b(&mut self, v: bool) {
        self.u(u64::from(v));
    }

    #[inline(always)]
    fn s(&mut self, v: &str) {
        self.decimal(v.len() as u64, b':');
        self.put(v.as_bytes());
        self.put(b" ");
    }

    /// Appends `v`'s decimal digits, then `end`.
    #[inline(always)]
    fn decimal(&mut self, mut v: u64, end: u8) {
        let mut token = [end; 21];
        let mut start = 20;
        loop {
            start -= 1;
            token[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.put(&token[start..]);
    }

    /// The finished payload body.
    fn finish(self) -> String {
        // Every byte is ASCII or copied from a `&str`, so the lossy
        // fallback is never taken.
        String::from_utf8(self.buf)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// Parses `bytes[from..]` up to the first `stop` byte as an unsigned
/// number in `radix`: at least one digit, nothing else, no `u64`
/// overflow. Returns the value and the index of `stop`.
fn digits(bytes: &[u8], from: usize, stop: u8, radix: u32) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut at = from;
    loop {
        let b = *bytes.get(at)?;
        if b == stop {
            break;
        }
        let digit = char::from(b).to_digit(radix)?;
        value = value
            .checked_mul(u64::from(radix))?
            .checked_add(u64::from(digit))?;
        at += 1;
    }
    (at > from).then_some((value, at))
}

/// [`digits`] in radix 10, trying [`short_decimal`] first.
#[inline(always)]
fn decimal(bytes: &[u8], from: usize, stop: u8) -> Option<(u64, usize)> {
    match bytes.get(from..).and_then(|rest| short_decimal(rest, stop)) {
        Some((value, len)) => Some((value, from + len)),
        None => digits(bytes, from, stop, 10),
    }
}

/// A token of one to seven decimal digits and then `stop`, read as one
/// little-endian word: its value and digit count. `None` for any other
/// shape (a sign, eight or more digits, another terminator, fewer than
/// eight bytes), which [`decimal`] leaves to [`digits`]; where this
/// returns a value, it is the one `digits` returns.
#[inline(always)]
fn short_decimal(bytes: &[u8], stop: u8) -> Option<(u64, usize)> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES * 0x80;
    let w = u64::from_le_bytes(*bytes.first_chunk::<8>()?);
    // A digit byte sets neither top bit: `b - 0x30` does not borrow and
    // `b + 0x46` stays below 0x80. Any other byte sets one of them, so
    // the lowest flag is the first non-digit. Bytes above it may be
    // flagged wrongly by its borrow or carry, and are never read.
    let values = w.wrapping_sub(ONES * u64::from(b'0'));
    let flags = (values | w.wrapping_add(ONES * 0x46)) & HIGH;
    let len = (flags.trailing_zeros() / 8) as usize;
    if len == 0 || len == 8 || (w >> (8 * len)) as u8 != stop {
        return None;
    }
    // The digits, most significant first in the low bytes, move to the
    // top of the word behind zero bytes (leading zeros); then pairs,
    // quads and octets of digits combine.
    let mut v = values << (64 - 8 * len);
    v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v * 10_000 + (v >> 32)) & 0xFFFF_FFFF;
    Some((v, len))
}

/// The index after an optional leading `+`, where a number's digits start.
fn after_plus(bytes: &[u8]) -> usize {
    usize::from(bytes.first() == Some(&b'+'))
}

/// The canonical float token: exactly 16 lowercase hex digits and a
/// space. Decodes eight digits at a time; any other form is left to
/// [`digits`].
fn hex16(token: &[u8; 17]) -> Option<u64> {
    let (hi, rest) = token.split_first_chunk::<8>()?;
    let (lo, end) = rest.split_first_chunk::<8>()?;
    if end != b" " {
        return None;
    }
    Some(hex8(u64::from_be_bytes(*hi))? << 32 | hex8(u64::from_be_bytes(*lo))?)
}

/// The value of eight lowercase ASCII hex digits packed big-endian in
/// `x`, or `None` if any byte is not one.
fn hex8(x: u64) -> Option<u64> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES * 0x80;
    // In a byte below 0x80, adding `0x80 - lo` sets the top bit iff the
    // byte is at least `lo`, and never carries into the next byte.
    let at_least = |v: u64, lo: u8| v.wrapping_add(ONES * u64::from(0x80 - lo)) & HIGH;
    let digit = at_least(x, b'0') & !at_least(x, b'9' + 1);
    let letter = at_least(x, b'a') & !at_least(x, b'f' + 1);
    if x & HIGH != 0 || digit | letter != HIGH {
        return None;
    }
    // A digit's value is its low nibble; a letter (bit 6 set) adds 9.
    let mut v = (x & (ONES * 0x0F)) + ((x >> 6) & ONES) * 9;
    v = (v | v >> 4) & 0x00FF_00FF_00FF_00FF;
    v = (v | v >> 8) & 0x0000_FFFF_0000_FFFF;
    Some((v | v >> 16) & 0xFFFF_FFFF)
}

/// Canonical payload decoder; every reader returns `None` on malformed
/// input (the caller treats the payload as a miss).
pub(crate) struct Dec<'a> {
    rest: &'a str,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `text`, with nothing consumed.
    fn raw(text: &'a str) -> Dec<'a> {
        Dec { rest: text }
    }

    /// Opens a payload, validating the version + stage tag prefix.
    fn new(text: &'a str, stage: &str) -> Option<Dec<'a>> {
        let mut d = Dec::raw(text);
        if d.u()? != PAYLOAD_VERSION || d.s()? != stage {
            return None;
        }
        Some(d)
    }

    /// Consumes the input through the terminator at byte index `stop`;
    /// every reader goes through here.
    #[inline(always)]
    fn skip_past(&mut self, stop: usize) -> Option<()> {
        self.rest = self.rest.get(stop.checked_add(1)?..)?;
        Some(())
    }

    fn token(&mut self) -> Option<&'a str> {
        let sp = self.rest.find(' ')?;
        let tok = self.rest.get(..sp)?;
        self.skip_past(sp)?;
        Some(tok)
    }

    #[inline(always)]
    fn u(&mut self) -> Option<u64> {
        let bytes = self.rest.as_bytes();
        let (v, stop) = decimal(bytes, after_plus(bytes), b' ')?;
        self.skip_past(stop)?;
        Some(v)
    }

    #[inline(always)]
    fn i(&mut self) -> Option<i64> {
        let bytes = self.rest.as_bytes();
        let negative = bytes.first() == Some(&b'-');
        let from = if negative { 1 } else { after_plus(bytes) };
        let (magnitude, stop) = decimal(bytes, from, b' ')?;
        let v = if negative {
            0i64.checked_sub_unsigned(magnitude)?
        } else {
            i64::try_from(magnitude).ok()?
        };
        self.skip_past(stop)?;
        Some(v)
    }

    fn i128v(&mut self) -> Option<i128> {
        self.token()?.parse().ok()
    }

    #[inline(always)]
    fn f(&mut self) -> Option<f64> {
        let bytes = self.rest.as_bytes();
        let (bits, stop) = match bytes.first_chunk::<17>().and_then(hex16) {
            Some(bits) => (bits, 16),
            None => digits(bytes, after_plus(bytes), b' ', 16)?,
        };
        self.skip_past(stop)?;
        Some(f64::from_bits(bits))
    }

    #[inline(always)]
    fn b(&mut self) -> Option<bool> {
        match self.u()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    #[inline(always)]
    fn s(&mut self) -> Option<&'a str> {
        let bytes = self.rest.as_bytes();
        let (len, colon) = decimal(bytes, after_plus(bytes), b':')?;
        let start = colon + 1;
        let end = start.checked_add(usize::try_from(len).ok()?)?;
        if bytes.get(end) != Some(&b' ') {
            return None;
        }
        let out = self.rest.get(start..end)?;
        self.skip_past(end)?;
        Some(out)
    }

    /// Element count for a sequence, at most the bytes left (every element
    /// is at least two bytes). What a count may reserve is bounded where
    /// `Vec` decodes.
    #[inline(always)]
    fn len(&mut self) -> Option<usize> {
        let n = usize::try_from(self.u()?).ok()?;
        (n <= self.rest.len()).then_some(n)
    }

    /// True once the payload is fully consumed (trailing garbage → reject).
    fn done(&self) -> bool {
        self.rest.is_empty()
    }
}

/// A payload type: `enc` writes its tokens and `dec` reads them back in
/// the same order, returning `None` on anything `enc` could not have
/// written.
pub(crate) trait Codec {
    fn enc(&self, e: &mut Enc);

    fn dec(d: &mut Dec<'_>) -> Option<Self>
    where
        Self: Sized;
}

/// Scalars that are one token each, through the `Enc`/`Dec` method named.
macro_rules! scalar_codec {
    ($($ty:ty => $method:ident),+) => {$(
        impl Codec for $ty {
            #[inline(always)]
            fn enc(&self, e: &mut Enc) {
                e.$method(*self);
            }

            #[inline(always)]
            fn dec(d: &mut Dec<'_>) -> Option<Self> {
                d.$method()
            }
        }
    )+};
}

scalar_codec!(u64 => u, i64 => i, i128 => i128v, f64 => f, bool => b);

/// Narrower unsigned integers: one `u` token, range-checked on the way in.
macro_rules! narrow_codec {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            #[inline(always)]
            fn enc(&self, e: &mut Enc) {
                e.u(*self as u64);
            }

            #[inline(always)]
            fn dec(d: &mut Dec<'_>) -> Option<Self> {
                Self::try_from(d.u()?).ok()
            }
        }
    )+};
}

narrow_codec!(u8, u16, u32, usize);

/// Id newtypes: their `u32`.
macro_rules! id_codec {
    ($($ty:ident),+) => {$(
        impl Codec for $ty {
            #[inline(always)]
            fn enc(&self, e: &mut Enc) {
                self.0.enc(e);
            }

            #[inline(always)]
            fn dec(d: &mut Dec<'_>) -> Option<Self> {
                u32::dec(d).map($ty)
            }
        }
    )+};
}

id_codec!(InstId, NetId, CellId);

/// Two-variant enums: one flag token, set for the first variant named.
macro_rules! flag_codec {
    ($($ty:ident: $set:ident | $clear:ident),+) => {$(
        impl Codec for $ty {
            #[inline(always)]
            fn enc(&self, e: &mut Enc) {
                e.b(*self == $ty::$set);
            }

            #[inline(always)]
            fn dec(d: &mut Dec<'_>) -> Option<Self> {
                Some(if d.b()? { $ty::$set } else { $ty::$clear })
            }
        }
    )+};
}

flag_codec!(
    Orientation: FlippedSouth | North,
    Side: Back | Front,
    PortDirection: Output | Input,
    Severity: Error | Warning
);

impl Codec for str {
    #[inline(always)]
    fn enc(&self, e: &mut Enc) {
        e.s(self);
    }
}

impl Codec for String {
    #[inline(always)]
    fn enc(&self, e: &mut Enc) {
        e.s(self);
    }

    #[inline(always)]
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        d.s().map(str::to_owned)
    }
}

/// `Violation::rule`, the one `&'static str` in a payload: a signoff rule
/// id, decoded by lookup in the closed set [`ffet_verify::RULES`]. An
/// unknown id is a miss.
impl Codec for &'static str {
    fn enc(&self, e: &mut Enc) {
        e.s(self);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let name = d.s()?;
        let at = ffet_verify::RULES.binary_search(&name).ok()?;
        ffet_verify::RULES.get(at).copied()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            Some(v) => {
                e.b(true);
                v.enc(e);
            }
            None => e.b(false),
        }
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some(if d.b()? { Some(T::dec(d)?) } else { None })
    }
}

impl<T: Codec> Codec for [T] {
    fn enc(&self, e: &mut Enc) {
        e.u(self.len() as u64);
        for item in self {
            item.enc(e);
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        self.as_slice().enc(e);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        seq(d, T::dec)
    }
}

/// A sequence: its count, then that many items read by `item`.
fn seq<T>(d: &mut Dec<'_>, mut item: impl FnMut(&mut Dec<'_>) -> Option<T>) -> Option<Vec<T>> {
    let n = d.len()?;
    // Reserve no more bytes than the input has left: the count is only
    // bounded by that many elements, and an element may be far larger in
    // memory than on the wire. A longer honest vector grows past it.
    let mut out = Vec::with_capacity(n.min(d.rest.len() / size_of::<T>().max(1)));
    for _ in 0..n {
        out.push(item(d)?);
    }
    Some(out)
}

impl<V: Codec> Codec for BTreeMap<String, V> {
    fn enc(&self, e: &mut Enc) {
        e.u(self.len() as u64);
        for (key, value) in self {
            key.enc(e);
            value.enc(e);
        }
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let mut out = BTreeMap::new();
        for _ in 0..d.len()? {
            let key = String::dec(d)?;
            out.insert(key, V::dec(d)?);
        }
        Some(out)
    }
}

/// A fixed-size array: its length, which must be `N` on the way in.
impl<const N: usize> Codec for [u64; N] {
    fn enc(&self, e: &mut Enc) {
        e.u(N as u64);
        for &v in self {
            e.u(v);
        }
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        if usize::dec(d)? != N {
            return None;
        }
        let mut out = [0; N];
        for slot in &mut out {
            *slot = d.u()?;
        }
        Some(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::dec(d)?, B::dec(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec, D: Codec, E: Codec> Codec for (A, B, C, D, E) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
        self.3.enc(e);
        self.4.enc(e);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::dec(d)?, B::dec(d)?, C::dec(d)?, D::dec(d)?, E::dec(d)?))
    }
}

/// Structs whose payload is their fields in the order listed. The decoder
/// is a struct literal, so a field added to one of these types does not
/// compile until it has a place in the list (and [`PAYLOAD_VERSION`] is
/// bumped).
macro_rules! struct_codec {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Codec for $ty {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                $(self.$field.enc(e);)+
            }

            #[inline(always)]
            fn dec(d: &mut Dec<'_>) -> Option<Self> {
                Some($ty { $($field: Codec::dec(d)?),+ })
            }
        }
    )+};
}

struct_codec! {
    Point { x, y }
    Rect { lo, hi }
    LayerId { side, index }
    PinRef { inst, pin }
    Instance { name, cell, conns, fixed }
    Net { name, driver, sinks, is_clock }
    Port { name, direction, net }
    Def { design, dbu_per_micron, die, components, nets, special_nets }
    DefComponent { name, macro_name, origin, orient, fixed }
    DefNet { name, connections, wires, vias }
    DefConnection { instance, pin }
    DefWire { layer, from, to }
    DefVia { at, from_layer, to_layer }
    DefSpecialNet { name, shapes }
    Floorplan { die, core, rows, target_utilization, cell_area_nm2 }
    Row { y, x, sites, orient }
    PowerPlan { special_nets, taps, vss_stripe_x }
    TapCell { row, site, width_sites }
    Placement { origins, orients, violations, hpwl_nm, port_positions }
    ClockTree { buffers, levels, sink_count }
    RoutingResult {
        nets, overflow_tracks, drv_count, wirelength_nm, via_count, peak_congestion,
        back_wirelength_nm, hot_gcells
    }
    RoutedNet { net, side, wires, vias }
    SignoffReport { violations }
    Violation { rule, severity, subject, location, message }
    NetParasitics { name, total_cap_ff, sinks }
    SinkParasitics { path_res_kohm, wire_elmore_ps, connected }
    TimingReport { critical_path_ps, max_frequency_ghz, wns_ps, endpoints, critical_net, path }
    PathStep { net, arrival_ps, cell_delay_ps, wire_delay_ps, cell, fanout }
    PowerReport { switching_mw, internal_mw, leakage_mw, clock_mw }
    PointData { events, metrics }
    MetricsSnapshot { counters, gauges, histograms }
    Histogram { count, sum, min, max, buckets }
}

/// The netlist's fields are private: it is rebuilt through
/// [`Netlist::from_parts`], which rejects duplicate net names.
impl Codec for Netlist {
    fn enc(&self, e: &mut Enc) {
        self.name().enc(e);
        self.instances().enc(e);
        self.nets().enc(e);
        self.ports().enc(e);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let name = String::dec(d)?;
        let instances = Vec::dec(d)?;
        let nets = Vec::dec(d)?;
        let ports = Vec::dec(d)?;
        Netlist::from_parts(name, instances, nets, ports).ok()
    }
}

/// Each routed wire once (DESIGN §14.2): after the P&R artifacts, each
/// side DEF is written by [`enc_side_def`], which refers to `routing` for
/// what the DEF repeats of it.
impl Codec for PnrResult {
    fn enc(&self, e: &mut Enc) {
        self.floorplan.enc(e);
        self.powerplan.enc(e);
        self.placement.enc(e);
        self.clock.enc(e);
        self.routing.enc(e);
        enc_side_def(e, &self.front_def, None, &self.routing);
        enc_side_def(e, &self.back_def, Some(&self.front_def), &self.routing);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let (floorplan, powerplan, placement, clock, routing) = Codec::dec(d)?;
        let front_def = dec_side_def(d, None, &routing)?;
        let back_def = dec_side_def(d, Some(&front_def), &routing)?;
        Some(PnrResult {
            floorplan,
            powerplan,
            placement,
            clock,
            routing,
            front_def,
            back_def,
        })
    }
}

/// Writes one side DEF of a pnr payload: its header; a flag set when its
/// components equal `front`'s, which are then not written again (`front`
/// is `None` for the front DEF itself, whose flag is always clear); per
/// net its name, connections and the index in `routing.nets` of the
/// routed net whose wires and vias it equals, or `None` and its own
/// lists; then its special nets.
fn enc_side_def(e: &mut Enc, def: &Def, front: Option<&Def>, routing: &RoutingResult) {
    def.design.enc(e);
    def.dbu_per_micron.enc(e);
    def.die.enc(e);
    let same_components = front.is_some_and(|f| f.components == def.components);
    e.b(same_components);
    if !same_components {
        def.components.enc(e);
    }
    // `export_defs` writes a side's nets in the order of its routed nets.
    let side = front.map_or(Side::Front, |_| Side::Back);
    let mut routed = (0..routing.nets.len()).filter(|&i| routing.nets[i].side == side);
    e.u(def.nets.len() as u64);
    for net in &def.nets {
        net.name.enc(e);
        net.connections.enc(e);
        let same = routed.next().filter(|&i| {
            let r = &routing.nets[i];
            r.wires == net.wires && r.vias == net.vias
        });
        same.enc(e);
        if same.is_none() {
            net.wires.enc(e);
            net.vias.enc(e);
        }
    }
    def.special_nets.enc(e);
}

/// Reads what [`enc_side_def`] writes. A components flag without `front`,
/// or a net index outside `routing.nets`, is a miss.
fn dec_side_def(d: &mut Dec<'_>, front: Option<&Def>, routing: &RoutingResult) -> Option<Def> {
    let design = Codec::dec(d)?;
    let dbu_per_micron = Codec::dec(d)?;
    let die = Codec::dec(d)?;
    let components = if d.b()? {
        front?.components.clone()
    } else {
        Codec::dec(d)?
    };
    let nets = seq(d, |d| {
        let name = Codec::dec(d)?;
        let connections = Codec::dec(d)?;
        let (wires, vias) = match Option::<usize>::dec(d)? {
            Some(i) => {
                let r = routing.nets.get(i)?;
                (r.wires.clone(), r.vias.clone())
            }
            None => (Codec::dec(d)?, Codec::dec(d)?),
        };
        Some(DefNet {
            name,
            connections,
            wires,
            vias,
        })
    })?;
    Some(Def {
        design,
        dbu_per_micron,
        die,
        components,
        nets,
        special_nets: Codec::dec(d)?,
    })
}

/// `start_us`/`dur_us` are wall clock: stripped before storage, not
/// written, and zero on decode.
impl Codec for SpanEvent {
    fn enc(&self, e: &mut Enc) {
        self.id.enc(e);
        self.parent.enc(e);
        self.depth.enc(e);
        self.name.enc(e);
        self.attrs.enc(e);
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some(SpanEvent {
            id: Codec::dec(d)?,
            parent: Codec::dec(d)?,
            depth: Codec::dec(d)?,
            name: Codec::dec(d)?,
            start_us: 0.0,
            dur_us: 0.0,
            attrs: Codec::dec(d)?,
        })
    }
}

/// A tag token (0 string, 1 integer, 2 float, 3 bool), then the value.
impl Codec for AttrValue {
    fn enc(&self, e: &mut Enc) {
        match self {
            AttrValue::Str(s) => {
                e.u(0);
                s.enc(e);
            }
            AttrValue::Int(i) => {
                e.u(1);
                i.enc(e);
            }
            AttrValue::Float(x) => {
                e.u(2);
                x.enc(e);
            }
            AttrValue::Bool(b) => {
                e.u(3);
                b.enc(e);
            }
        }
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u()? {
            0 => AttrValue::Str(Codec::dec(d)?),
            1 => AttrValue::Int(Codec::dec(d)?),
            2 => AttrValue::Float(Codec::dec(d)?),
            3 => AttrValue::Bool(Codec::dec(d)?),
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Per-stage payloads
// ---------------------------------------------------------------------------
//
// A stage payload is the version + stage tag prefix, the stage's artifact,
// then its captured (timing-stripped) trace.

/// A `stage` payload: the header, `value` and its trace.
fn encode<T: Codec + ?Sized>(stage: Stage, value: &T, data: &PointData) -> String {
    let mut e = Enc::new(stage.name());
    value.enc(&mut e);
    data.enc(&mut e);
    e.finish()
}

/// A whole `stage` payload: the header, the value and its trace, with
/// nothing left over.
fn decode<T: Codec>(stage: Stage, text: &str) -> Option<(T, PointData)> {
    let mut d = Dec::new(text, stage.name())?;
    let payload = Codec::dec(&mut d)?;
    d.done().then_some(payload)
}

/// Encodes the synth payload: the synthesized netlist plus the stage's
/// captured (timing-stripped) trace.
#[must_use]
pub fn encode_synth(netlist: &Netlist, data: &PointData) -> String {
    encode(Stage::Synth, netlist, data)
}

/// Decodes a synth payload; `None` on any mismatch (treated as a miss).
#[must_use]
pub fn decode_synth(text: &str) -> Option<(Netlist, PointData)> {
    decode(Stage::Synth, text)
}

/// Encodes the pnr payload: the post-CTS netlist (P&R inserts clock
/// buffers), the full [`PnrResult`], and the captured trace.
#[must_use]
pub fn encode_pnr(value: &(Netlist, PnrResult), data: &PointData) -> String {
    encode(Stage::Pnr, value, data)
}

/// Decodes a pnr payload.
#[must_use]
pub fn decode_pnr(text: &str) -> Option<((Netlist, PnrResult), PointData)> {
    decode(Stage::Pnr, text)
}

/// Encodes the merge payload (the merged dual-sided DEF).
#[must_use]
pub fn encode_merge(def: &Def, data: &PointData) -> String {
    encode(Stage::Merge, def, data)
}

/// Decodes a merge payload.
#[must_use]
pub fn decode_merge(text: &str) -> Option<(Def, PointData)> {
    decode(Stage::Merge, text)
}

/// Encodes the signoff payload (the full structured report).
#[must_use]
pub fn encode_signoff_payload(report: &SignoffReport, data: &PointData) -> String {
    encode(Stage::Signoff, report, data)
}

/// Decodes a signoff payload.
#[must_use]
pub fn decode_signoff_payload(text: &str) -> Option<(SignoffReport, PointData)> {
    decode(Stage::Signoff, text)
}

/// Encodes the rcx payload (per-net parasitics, `None` slots preserved).
#[must_use]
pub fn encode_rcx(parasitics: &[Option<NetParasitics>], data: &PointData) -> String {
    encode(Stage::Rcx, parasitics, data)
}

/// Decodes an rcx payload.
#[must_use]
pub fn decode_rcx(text: &str) -> Option<(Vec<Option<NetParasitics>>, PointData)> {
    decode(Stage::Rcx, text)
}

/// Encodes the sta payload (timing + power reports).
#[must_use]
pub fn encode_sta(value: &(TimingReport, PowerReport), data: &PointData) -> String {
    encode(Stage::Sta, value, data)
}

/// Decodes an sta payload.
#[must_use]
pub fn decode_sta(text: &str) -> Option<((TimingReport, PowerReport), PointData)> {
    decode(Stage::Sta, text)
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------
//
// Keys are canonical strings (then hashed by `blob_hash` into the `.key`
// link name).
// Wall-clock/driver-only knobs — `route_jobs`, `deadline_ms`,
// `max_attempts`, `stage_cache` itself — are deliberately excluded: they
// never change an artifact byte (§7), so entries shared across them stay
// valid. `fault_plan` never reaches a key because faulted runs bypass the
// cache entirely.

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Signature of the library a config builds: `Library::new` is a pure
/// function of the technology, and `redistribute_input_pins` (applied only
/// when `back_pin_ratio > 0`) additionally depends on the ratio and seed.
#[must_use]
pub fn library_sig(config: &FlowConfig) -> String {
    let seed = if config.back_pin_ratio > 0.0 {
        config.seed
    } else {
        0
    };
    format!("{:?}|{}|{seed}", config.tech, bits(config.back_pin_ratio))
}

/// Synth-stage key. Synthesis reads only cell kinds/drives/input caps —
/// all functions of the technology alone (pin-side redistribution moves
/// pin *geometry*, which synthesis never sees) — so the key deliberately
/// omits `back_pin_ratio` and `seed`: every point of a back-pin-ratio or
/// seed axis shares one synth entry.
#[must_use]
pub fn synth_key(config: &FlowConfig, netlist: &Netlist) -> String {
    let mut e = Enc::new("synth-input");
    netlist.enc(&mut e);
    let input_hash = hash_hex(blob_hash(&e.buf));
    format!(
        "sc{PAYLOAD_VERSION}|synth|{:?}|{}|{input_hash}",
        config.tech,
        bits(config.target_freq_ghz)
    )
}

/// Pnr-stage key over the synth payload address and every placement/
/// routing-relevant config field.
#[must_use]
pub fn pnr_key(config: &FlowConfig, synth_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|pnr|{synth_addr}|{}|{}|{}|{}|{}|{:?}|{}",
        library_sig(config),
        config.seed,
        bits(config.utilization),
        bits(config.aspect_ratio),
        config.pattern,
        config.bridging_min_nm,
        config.extra_reroute_rounds
    )
}

/// Merge-stage key: the merge is a pure function of the two side DEFs,
/// both inside the pnr payload.
#[must_use]
pub fn merge_key(pnr_addr: &str) -> String {
    format!("sc{PAYLOAD_VERSION}|merge|{pnr_addr}")
}

/// Signoff-stage key over the pnr and merge payloads plus the library and
/// routing pattern the checks run under.
#[must_use]
pub fn signoff_key(config: &FlowConfig, pnr_addr: &str, merge_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|signoff|{pnr_addr}|{merge_addr}|{}|{}",
        library_sig(config),
        config.pattern
    )
}

/// Rcx-stage key over the pnr and merge payloads plus the library
/// (extraction reads layer RC from the technology).
#[must_use]
pub fn rcx_key(config: &FlowConfig, pnr_addr: &str, merge_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|rcx|{pnr_addr}|{merge_addr}|{}",
        library_sig(config)
    )
}

/// Sta-stage key over the pnr and rcx payloads plus the analysis operating
/// point (clock target and switching activity).
#[must_use]
pub fn sta_key(config: &FlowConfig, pnr_addr: &str, rcx_addr: &str) -> String {
    format!(
        "sc{PAYLOAD_VERSION}|sta|{pnr_addr}|{rcx_addr}|{}|{}|{}",
        library_sig(config),
        bits(config.target_freq_ghz),
        bits(config.activity)
    )
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Serializes manifest appends within this process (cross-process safety
/// comes from `O_APPEND` single-write lines, same posture as the ledger).
static MANIFEST_LOCK: Mutex<()> = Mutex::new(());

/// Handle to a stage-cache root directory. Cheap: holds only the path;
/// every operation is a direct filesystem access, so concurrent handles
/// (any pool width, even multiple processes) see one coherent store.
#[derive(Debug, Clone)]
pub struct StageCache {
    root: PathBuf,
}

impl StageCache {
    /// Opens (without creating) a cache at `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> StageCache {
        StageCache { root: root.into() }
    }

    /// The cache root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn key_path(&self, key: &str) -> PathBuf {
        self.root
            .join(format!("{}.key", hash_hex(blob_hash(key.as_bytes()))))
    }

    /// Looks `key` up: resolves its link, reads the payload blob and
    /// re-verifies the content address. Any failure — missing link,
    /// malformed address, missing blob, hash mismatch (a poisoned object)
    /// — is a miss. A stage of [`crate::run_flow`] hits exactly when this
    /// returns a body that then decodes.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<(String, String)> {
        let addr = fs::read_to_string(self.key_path(key)).ok()?;
        let addr = addr.trim();
        let body = valid_blob(&self.root, addr)?;
        Some((addr.to_owned(), body))
    }

    /// Stores `payload` under `key` and returns its content address.
    /// Best-effort: any I/O failure returns `None` (the stage result is
    /// still valid, just not cached — and downstream stages then key as
    /// uncacheable). An existing blob at the same address is left
    /// untouched: same address means same bytes for an honest writer, and
    /// a poisoned blob stays a deterministic miss until `gc` removes it.
    #[must_use]
    pub fn store(&self, key: &str, stage: &'static str, payload: &str) -> Option<String> {
        let addr = hash_hex(blob_hash(payload.as_bytes()));
        let blob = blob_path(&self.root, &addr);
        let newly_written = if blob.exists() {
            false
        } else {
            atomic_write_unique(&blob, payload.as_bytes()).ok()?;
            true
        };
        atomic_write_unique(&self.key_path(key), addr.as_bytes()).ok()?;
        if newly_written {
            self.manifest_append(&addr, stage, payload.len());
        }
        Some(addr)
    }

    /// Appends one accounting record to the manifest. Advisory: failures
    /// are swallowed (stats falls back to directory scans) and records are
    /// checksummed so a torn line is skipped on load.
    fn manifest_append(&self, addr: &str, stage: &str, bytes: usize) {
        let _guard = MANIFEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let line = record::seal(&manifest_body(addr, stage, bytes as u64));
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(MANIFEST_FILE))
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }
}

fn blob_path(root: &Path, addr: &str) -> PathBuf {
    root.join(format!("{addr}.blob"))
}

/// The body of blob `addr`, if the blob is valid: `addr` is 16 hex digits
/// and the body hashes to it. The one validity rule of the store, which
/// [`StageCache::lookup`] (and so every stage hit), [`verify`] and [`gc`]
/// evaluate before anything reads the body.
fn valid_blob(root: &Path, addr: &str) -> Option<String> {
    if addr.len() != 16 || !addr.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let body = fs::read_to_string(blob_path(root, addr)).ok()?;
    (hash_hex(blob_hash(body.as_bytes())) == addr).then_some(body)
}

/// Multiplies `a` by `b` into 128 bits and folds the high half onto the
/// low one.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ (product >> 64) as u64
}

/// The content address of a blob body, and the name of a key link
/// (DESIGN §14.2). Four independent lanes take the body's 8-byte words in
/// turn, read little-endian so that addresses do not depend on the host's
/// byte order, and mix each in by a folded 64×64→128-bit multiply; the
/// last partial stripe is zero-padded. The lanes are then folded in order
/// into the body length, and a final avalanche step spreads every input
/// bit over the result. Not `std::hash`, whose output may change between
/// releases: addresses outlive the binary that wrote them.
fn blob_hash(bytes: &[u8]) -> u64 {
    // The lanes' starting states: the first hex digits of π's fraction.
    const START: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    // Odd multipliers: 2^64 / φ and the two of MurmurHash3's finalizer.
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    const AVALANCHE: [u64; 2] = [0xff51_afd7_ed55_8ccd, 0xc4ce_b9fe_1a85_ec53];
    let stripe = |lanes: &mut [u64; 4], words: &[u8; 32]| {
        for (lane, word) in lanes.iter_mut().zip(words.as_chunks::<8>().0) {
            *lane = fold_mul(*lane ^ u64::from_le_bytes(*word), MIX);
        }
    };
    let mut lanes = START;
    let (stripes, tail) = bytes.as_chunks::<32>();
    for words in stripes {
        stripe(&mut lanes, words);
    }
    if !tail.is_empty() {
        let mut padded = [0; 32];
        padded[..tail.len()].copy_from_slice(tail);
        stripe(&mut lanes, &padded);
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = fold_mul(h ^ lane, MIX);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(AVALANCHE[0]);
    h ^= h >> 33;
    h = h.wrapping_mul(AVALANCHE[1]);
    h ^ h >> 33
}

/// The JSON body of one manifest record.
fn manifest_body(addr: &str, stage: &str, bytes: u64) -> String {
    format!("{{\"addr\":\"{addr}\",\"stage\":\"{stage}\",\"bytes\":{bytes}}}")
}

/// Loads the manifest: `addr → (stage, bytes)`, last record wins. Corrupt
/// or torn lines are skipped — the manifest is advisory accounting, not a
/// replay order.
fn load_manifest(root: &Path) -> BTreeMap<String, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(text) = fs::read_to_string(root.join(MANIFEST_FILE)) else {
        return out;
    };
    for line in text.lines() {
        let Ok(body) = record::open(line) else {
            continue;
        };
        let Ok(json) = ffet_obs::parse_json(body) else {
            continue;
        };
        let (Some(addr), Some(stage), Some(bytes)) = (
            json.get("addr").and_then(ffet_obs::Json::as_str),
            json.get("stage").and_then(ffet_obs::Json::as_str),
            json.get("bytes").and_then(ffet_obs::Json::as_i64),
        ) else {
            continue;
        };
        out.insert(
            addr.to_owned(),
            (stage.to_owned(), u64::try_from(bytes).unwrap_or(0)),
        );
    }
    out
}

/// Sorted `(file_name, byte_size)` listing of the cache root. A missing
/// root lists as empty.
fn sorted_entries(root: &Path) -> std::io::Result<Vec<(String, u64)>> {
    let mut out = Vec::new();
    let iter = match fs::read_dir(root) {
        Ok(iter) => iter,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in iter {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let size = entry.metadata().map_or(0, |m| m.len());
        out.push((name, size));
    }
    out.sort();
    Ok(out)
}

/// What `ffet cache stats` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStatsReport {
    /// Payload blobs on disk.
    pub blobs: usize,
    /// Total payload bytes on disk (ground truth: file sizes).
    pub blob_bytes: u64,
    /// Key links on disk.
    pub links: usize,
    /// Per-stage `(count, bytes)` from the manifest.
    pub per_stage: BTreeMap<String, (usize, u64)>,
    /// Blobs with no manifest record (e.g. written before accounting, or
    /// the manifest was truncated).
    pub unattributed: usize,
    /// Orphan `*.tmp` siblings from crashed writers.
    pub tmp_orphans: usize,
}

/// Scans the cache and reports size accounting.
///
/// # Errors
///
/// Propagates directory-scan I/O errors (a missing root reports empty).
pub fn stats(root: &Path) -> std::io::Result<CacheStatsReport> {
    let manifest = load_manifest(root);
    let mut report = CacheStatsReport::default();
    for (name, size) in sorted_entries(root)? {
        if let Some(addr) = name.strip_suffix(".blob") {
            report.blobs += 1;
            report.blob_bytes += size;
            match manifest.get(addr) {
                Some((stage, _)) => {
                    let slot = report.per_stage.entry(stage.clone()).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += size;
                }
                None => report.unattributed += 1,
            }
        } else if name.ends_with(".key") {
            report.links += 1;
        } else if name.ends_with(".tmp") {
            report.tmp_orphans += 1;
        }
    }
    Ok(report)
}

/// What `ffet cache verify` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Blobs whose body re-hashed to their address.
    pub blobs_ok: usize,
    /// Addresses of poisoned blobs (hash mismatch).
    pub corrupt: Vec<String>,
    /// Links resolving to a verified blob.
    pub links_ok: usize,
    /// Links whose target is missing, malformed, or corrupt.
    pub dangling: usize,
}

/// One pass over the store for [`verify`] and [`gc`]: every blob judged by
/// [`valid_blob`], then every link resolved against the valid ones.
struct Walk {
    /// The sorted root listing.
    entries: Vec<(String, u64)>,
    /// Addresses of valid blobs.
    valid: BTreeSet<String>,
    /// Addresses of invalid (poisoned) blobs.
    corrupt: Vec<String>,
    /// Each link's file name, with its target if that is a valid blob.
    links: Vec<(String, Option<String>)>,
}

fn walk(root: &Path) -> std::io::Result<Walk> {
    let entries = sorted_entries(root)?;
    let mut valid = BTreeSet::new();
    let mut corrupt = Vec::new();
    for (name, _) in &entries {
        if let Some(addr) = name.strip_suffix(".blob") {
            if valid_blob(root, addr).is_some() {
                valid.insert(addr.to_owned());
            } else {
                corrupt.push(addr.to_owned());
            }
        }
    }
    let mut links = Vec::new();
    for (name, _) in &entries {
        if name.ends_with(".key") {
            let target = fs::read_to_string(root.join(name)).unwrap_or_default();
            let target = target.trim();
            links.push((name.clone(), valid.get(target).cloned()));
        }
    }
    Ok(Walk {
        entries,
        valid,
        corrupt,
        links,
    })
}

/// Re-hashes every blob and resolves every link.
///
/// # Errors
///
/// Propagates directory-scan I/O errors.
pub fn verify(root: &Path) -> std::io::Result<VerifyReport> {
    let walk = walk(root)?;
    let links_ok = walk.links.iter().filter(|(_, t)| t.is_some()).count();
    Ok(VerifyReport {
        blobs_ok: walk.valid.len(),
        corrupt: walk.corrupt,
        links_ok,
        dangling: walk.links.len() - links_ok,
    })
}

/// What `ffet cache gc` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Orphan/corrupt blobs removed.
    pub removed_blobs: usize,
    /// Bytes reclaimed from removed blobs.
    pub freed_bytes: u64,
    /// Dangling links removed.
    pub removed_links: usize,
    /// Crashed-writer `*.tmp` files removed.
    pub removed_tmp: usize,
    /// Blobs kept (referenced and verified).
    pub kept_blobs: usize,
}

/// Removes everything unreachable or invalid: poisoned blobs, blobs no
/// link references, links whose target is missing or corrupt, and orphan
/// `*.tmp` files. The manifest is rewritten to cover only surviving blobs.
///
/// # Errors
///
/// Propagates directory-scan I/O errors (individual unlink failures are
/// counted as kept, never fatal).
pub fn gc(root: &Path) -> std::io::Result<GcReport> {
    let mut report = GcReport::default();
    let walk = walk(root)?;
    // Drop dangling links; collect the blobs the others reference.
    let mut referenced = BTreeSet::new();
    for (name, target) in walk.links {
        match target {
            Some(addr) => {
                referenced.insert(addr);
            }
            None => {
                if fs::remove_file(root.join(name)).is_ok() {
                    report.removed_links += 1;
                }
            }
        }
    }
    // Drop unreferenced/corrupt blobs and crashed-writer tmps.
    for (name, size) in &walk.entries {
        if let Some(addr) = name.strip_suffix(".blob") {
            if referenced.contains(addr) {
                report.kept_blobs += 1;
            } else if fs::remove_file(root.join(name)).is_ok() {
                report.removed_blobs += 1;
                report.freed_bytes += size;
            } else {
                report.kept_blobs += 1;
            }
        } else if name.ends_with(".tmp") && fs::remove_file(root.join(name)).is_ok() {
            report.removed_tmp += 1;
        }
    }
    // Rewrite the manifest to only surviving blobs (fresh accounting).
    let manifest = load_manifest(root);
    let mut text = String::new();
    for addr in &referenced {
        if let Some((stage, bytes)) = manifest.get(addr) {
            text.push_str(&record::seal(&manifest_body(addr, stage, *bytes)));
        }
    }
    if root.exists() {
        let _ = atomic_write_unique(&root.join(MANIFEST_FILE), text.as_bytes());
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// The stage runner
// ---------------------------------------------------------------------------

/// Runs one stage through the cache; `T` is the stage's artifact, and
/// its [`Codec`] is the payload grammar.
///
/// - `cache`/`key` absent → `compute` runs inline under the ambient
///   collector, exactly as an uncached flow would (zero overhead, byte-
///   identical event stream).
/// - Hit → [`StageCache::lookup`] returns the blob, checked against its
///   address, and the payload decodes; its captured trace is
///   [`ffet_obs::replay`]ed (root spans get `cached=true`; their stored
///   durations are zero), and the artifact is returned.
/// - Miss → `compute` runs under [`ffet_obs::capture`]; on success the
///   capture is replayed (`cached=false`), timing-stripped, encoded and
///   stored. Errors are replayed but never stored, so failed attempts
///   (timeouts, dirty signoff) cannot populate the cache.
///
/// Returns `(artifact, payload_addr)`; the address is `None` when uncached
/// or when the store failed (downstream stages then skip caching too,
/// keeping keys sound).
///
/// # Errors
///
/// Whatever `compute` returns.
pub(crate) fn run_stage<T: Codec, E>(
    cache: Option<&StageCache>,
    key: Option<String>,
    stage: Stage,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<(T, Option<String>), E> {
    let (Some(cache), Some(key)) = (cache, key) else {
        return Ok((compute()?, None));
    };
    let hit = cache
        .lookup(&key)
        .and_then(|(addr, body)| Some((decode(stage, &body)?, addr)));
    if let Some(((value, data), addr)) = hit {
        ffet_obs::cache_event("cache.hit", stage.name());
        ffet_obs::replay(
            &data,
            ffet_obs::ambient_elapsed_us(),
            &[("cached".to_owned(), AttrValue::Bool(true))],
        );
        return Ok((value, Some(addr)));
    }
    ffet_obs::cache_event("cache.miss", stage.name());
    let offset_us = ffet_obs::ambient_elapsed_us();
    let (result, mut data) = ffet_obs::capture(compute);
    ffet_obs::replay(
        &data,
        offset_us,
        &[("cached".to_owned(), AttrValue::Bool(false))],
    );
    let value = result?;
    ffet_obs::strip_point_timing(&mut data);
    let payload = encode(stage, &value, &data);
    let addr = cache.store(&key, stage.name(), &payload);
    if addr.is_some() {
        ffet_obs::cache_event("cache.store", stage.name());
    }
    Ok((value, addr))
}

/// The scalar writers and readers as they were before the byte-level
/// rewrite — `write!` out, `find` + `str::parse`/`from_str_radix` in —
/// kept verbatim (with the `checked_add` fix in `s`) as the differential
/// oracle for [`Enc`] and [`Dec`].
#[cfg(test)]
mod reference {
    use std::fmt::Write as _;

    pub(super) struct Enc {
        pub(super) buf: String,
    }

    impl Enc {
        pub(super) fn u(&mut self, v: u64) {
            let _ = write!(self.buf, "{v} ");
        }

        pub(super) fn i(&mut self, v: i64) {
            let _ = write!(self.buf, "{v} ");
        }

        pub(super) fn i128v(&mut self, v: i128) {
            let _ = write!(self.buf, "{v} ");
        }

        pub(super) fn f(&mut self, v: f64) {
            let _ = write!(self.buf, "{:016x} ", v.to_bits());
        }

        pub(super) fn b(&mut self, v: bool) {
            self.u(u64::from(v));
        }

        pub(super) fn s(&mut self, v: &str) {
            let _ = write!(self.buf, "{}:", v.len());
            self.buf.push_str(v);
            self.buf.push(' ');
        }
    }

    pub(super) struct Dec<'a> {
        pub(super) rest: &'a str,
    }

    impl<'a> Dec<'a> {
        fn token(&mut self) -> Option<&'a str> {
            let sp = self.rest.find(' ')?;
            let tok = &self.rest[..sp];
            self.rest = &self.rest[sp + 1..];
            Some(tok)
        }

        pub(super) fn u(&mut self) -> Option<u64> {
            self.token()?.parse().ok()
        }

        pub(super) fn i(&mut self) -> Option<i64> {
            self.token()?.parse().ok()
        }

        pub(super) fn i128v(&mut self) -> Option<i128> {
            self.token()?.parse().ok()
        }

        pub(super) fn f(&mut self) -> Option<f64> {
            u64::from_str_radix(self.token()?, 16)
                .ok()
                .map(f64::from_bits)
        }

        pub(super) fn b(&mut self) -> Option<bool> {
            match self.u()? {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            }
        }

        pub(super) fn s(&mut self) -> Option<&'a str> {
            let colon = self.rest.find(':')?;
            let len: usize = self.rest[..colon].parse().ok()?;
            let start = colon + 1;
            let end = start.checked_add(len)?;
            let out = self.rest.get(start..end)?;
            self.rest = self.rest.get(end..)?.strip_prefix(' ')?;
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_geom::Rng64;
    use ffet_tech::TechKind;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ffet-stagecache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn small_flow_pieces() -> (FlowConfig, ffet_cells::Library, Netlist) {
        let config = FlowConfig {
            pattern: ffet_tech::RoutingPattern::new(12, 12).expect("static"),
            back_pin_ratio: 0.5,
            utilization: 0.6,
            ..FlowConfig::baseline(TechKind::Ffet3p5t)
        };
        let library = config.build_library().expect("valid config");
        let netlist = crate::designs::counter_pipeline(&library, 12);
        (config, library, netlist)
    }

    /// A scalar reader, called on both decoders by the differential tests.
    #[derive(Debug, Clone, Copy)]
    enum Read {
        U,
        I,
        I128,
        F,
        B,
        S,
    }

    const READS: [Read; 6] = [Read::U, Read::I, Read::I128, Read::F, Read::B, Read::S];

    /// The reader a canonical payload calls next, guessed from the token's
    /// shape: `N:` opens a string, 16 characters are a float, a leading
    /// `-` is a signed integer, anything else an unsigned one.
    fn read_for(rest: &str) -> Read {
        let end = rest.find([' ', ':']).unwrap_or(rest.len());
        if rest.as_bytes().get(end) == Some(&b':') {
            Read::S
        } else if end == 16 {
            Read::F
        } else if rest.starts_with('-') {
            Read::I
        } else {
            Read::U
        }
    }

    /// Calls `read` on both decoders; both must return the same value.
    /// `None` ends the comparison (an aborted decode never looks at `rest`
    /// again), otherwise both must leave the same `rest`.
    fn same_read(new: &mut Dec<'_>, old: &mut reference::Dec<'_>, read: Read) -> bool {
        let show = |v: &dyn std::fmt::Debug| format!("{v:?}");
        let (a, b) = match read {
            Read::U => (new.u().map(|v| show(&v)), old.u().map(|v| show(&v))),
            Read::I => (new.i().map(|v| show(&v)), old.i().map(|v| show(&v))),
            Read::I128 => (new.i128v().map(|v| show(&v)), old.i128v().map(|v| show(&v))),
            Read::F => (
                new.f().map(|v| show(&v.to_bits())),
                old.f().map(|v| show(&v.to_bits())),
            ),
            Read::B => (new.b().map(|v| show(&v)), old.b().map(|v| show(&v))),
            Read::S => (new.s().map(|v| show(&v)), old.s().map(|v| show(&v))),
        };
        assert_eq!(a, b, "{read:?} diverged");
        if a.is_some() {
            assert_eq!(new.rest, old.rest, "{read:?} left a different rest");
        }
        a.is_some()
    }

    /// Up to `calls` reads on both decoders over `text`: the guessed
    /// reader, except that one read in `random_one_in` (none if 0) is
    /// drawn at random. Returns the bytes left unread.
    fn differential_walk(text: &str, rng: &mut Rng64, calls: usize, random_one_in: u64) -> usize {
        let mut new = Dec::raw(text);
        let mut old = reference::Dec { rest: text };
        for _ in 0..calls {
            let read = if random_one_in > 0 && rng.next_u64().is_multiple_of(random_one_in) {
                READS[rng.range_usize(0, READS.len())]
            } else {
                read_for(new.rest)
            };
            if !same_read(&mut new, &mut old, read) {
                break;
            }
        }
        new.rest.len()
    }

    /// The six stage payloads of one counter flow, read back from the
    /// scratch cache `tag`, in stage-name order.
    fn counter_payloads(tag: &str) -> Vec<(String, String)> {
        counter_flow(tag).2
    }

    /// One counter flow through the scratch cache `tag`: its outcome, its
    /// library and its six stage payloads, in stage-name order.
    fn counter_flow(
        tag: &str,
    ) -> (
        crate::FlowOutcome,
        ffet_cells::Library,
        Vec<(String, String)>,
    ) {
        let dir = scratch(tag);
        let (mut config, library, netlist) = small_flow_pieces();
        config.stage_cache = Some(dir.clone());
        let outcome = crate::run_flow(&netlist, &library, &config).expect("flow");
        let out = stored_blobs(&dir)
            .into_iter()
            .map(|(stage, _, body)| (stage, body))
            .collect();
        let _ = fs::remove_dir_all(&dir);
        (outcome, library, out)
    }

    /// The six blobs of the cache at `dir`: stage tag, address and body,
    /// in stage-name order.
    fn stored_blobs(dir: &Path) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).expect("cache root") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "blob") {
                let body = fs::read_to_string(&path).expect("blob");
                let mut d = Dec::raw(&body);
                let _version = d.u();
                let stage = d.s().expect("stage tag").to_owned();
                let addr = path.file_stem().and_then(|a| a.to_str()).expect("address");
                out.push((stage, addr.to_owned(), body));
            }
        }
        out.sort();
        assert_eq!(out.len(), Stage::ALL.len(), "one payload per stage");
        out
    }

    /// Whether `stage`'s whole-payload decoder accepts `text`.
    fn decodes(stage: &str, text: &str) -> bool {
        match stage {
            "synth" => decode_synth(text).is_some(),
            "pnr" => decode_pnr(text).is_some(),
            "merge" => decode_merge(text).is_some(),
            "signoff" => decode_signoff_payload(text).is_some(),
            "rcx" => decode_rcx(text).is_some(),
            "sta" => decode_sta(text).is_some(),
            other => panic!("unknown stage {other}"),
        }
    }

    #[test]
    fn writers_match_the_reference_on_edge_cases() {
        let mut new = Enc::empty();
        let mut old = reference::Enc { buf: String::new() };
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            10u64.pow(19) - 1,
            10u64.pow(19),
            u64::MAX,
        ] {
            new.u(v);
            old.u(v);
        }
        for v in [0, -1, 1, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
            new.i(v);
            old.i(v);
        }
        for v in [0, -1, i128::MIN, i128::MAX] {
            new.i128v(v);
            old.i128v(v);
        }
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload bits
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
        ];
        for v in floats {
            new.f(v);
            old.f(v);
        }
        for v in [true, false] {
            new.b(v);
            old.b(v);
        }
        for v in [
            "",
            "é",
            "日本語",
            "a b",
            "a:b",
            "12",
            "3:x ",
            "🦀 : 7 ",
            " ",
            ":",
        ] {
            new.s(v);
            old.s(v);
        }
        let mut rng = Rng64::new(0x5eed_c0de);
        for _ in 0..20_000 {
            let bits = rng.next_u64() >> rng.range_usize(0, 64);
            new.u(bits);
            old.u(bits);
            new.i(bits as i64);
            old.i(bits as i64);
            let x = f64::from_bits(rng.next_u64());
            new.f(x);
            old.f(x);
        }
        assert_eq!(new.finish(), old.buf);
    }

    #[test]
    fn writers_match_the_reference_on_real_payloads() {
        for (stage, payload) in counter_payloads("writer-payloads") {
            // Re-emit every token through both writers, reading it with
            // the reader its shape names.
            let mut new = Enc::empty();
            let mut old = reference::Enc { buf: String::new() };
            let mut d = Dec::raw(&payload);
            while !d.done() {
                match read_for(d.rest) {
                    Read::S => {
                        let v = d.s().expect("string token");
                        new.s(v);
                        old.s(v);
                    }
                    Read::F => {
                        let v = d.f().expect("float token");
                        new.f(v);
                        old.f(v);
                    }
                    Read::I => {
                        let v = d.i().expect("signed token");
                        new.i(v);
                        old.i(v);
                    }
                    _ => {
                        let v = d.u().expect("unsigned token");
                        new.u(v);
                        old.u(v);
                    }
                }
            }
            let new = new.finish();
            assert_eq!(new, old.buf, "{stage}: writers diverged");
            assert_eq!(new, payload, "{stage}: re-emitted payload drifted");
        }
    }

    /// Random short token strings over the forms the readers must agree
    /// on: signs, leading zeros, both hex cases, overflow edges, stray
    /// separators and multibyte characters.
    fn random_tokens(rng: &mut Rng64) -> String {
        const PIECES: &[&str] = &[
            "0",
            "1",
            "7",
            "42",
            "00",
            "+",
            "-",
            "+-",
            "-+",
            " ",
            " ",
            ":",
            "0000000000000000",
            "3ff0000000000000",
            "3FF0000000000000",
            "3fF0000000000000",
            "7ff8000000000001",
            "ffffffffffffffff",
            "10000000000000000",
            "0ffffffffffffffff",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "170141183460469231731687303715884105728",
            "abc",
            "g",
            "é",
            "∞",
            "3:a b",
            "5:synth",
            "0:",
            "1:",
            "\u{0}",
        ];
        let mut out = String::new();
        for _ in 0..rng.range_usize(1, 8) {
            out.push_str(PIECES[rng.range_usize(0, PIECES.len())]);
        }
        if !rng.next_u64().is_multiple_of(4) {
            out.push(' ');
        }
        out
    }

    /// Token starts of `text`: 0, and every index inside it after a space.
    fn token_starts(text: &str) -> Vec<usize> {
        let after_spaces = text.match_indices(' ').map(|(i, _)| i + 1);
        std::iter::once(0)
            .chain(after_spaces.filter(|&i| i < text.len()))
            .collect()
    }

    /// One mutation of `text` at a random place. Flips, truncations and
    /// splices damage bytes anywhere (then repaired to UTF-8, which brings
    /// multibyte replacement characters); token edits either stay inside
    /// what the old parsers accept (a `+`, leading zeros, uppercase or
    /// short hex) or step just outside it (overflowing digits, a `-` on an
    /// unsigned token, `+-`). Returns the text and the damaged index.
    fn mutate(text: &str, donor: &str, rng: &mut Rng64) -> (String, usize) {
        let mut bytes = text.as_bytes().to_vec();
        let starts = token_starts(text);
        let at = starts[rng.range_usize(0, starts.len())];
        let end = text[at..].find(' ').map_or(text.len(), |i| at + i);
        let pos = rng.range_usize(0, bytes.len());
        let (bytes, damaged) = match rng.range_usize(0, 10) {
            0 => {
                bytes[pos] = rng.next_u64() as u8;
                (bytes, pos)
            }
            1 => {
                bytes.truncate(pos);
                (bytes, pos)
            }
            2 => {
                let from = rng.range_usize(0, donor.len());
                let to = (from + rng.range_usize(1, 64)).min(donor.len());
                bytes.splice(pos..pos, donor.as_bytes()[from..to].iter().copied());
                (bytes, pos)
            }
            3 => {
                bytes.insert(at, b'+');
                (bytes, at)
            }
            4 => {
                bytes.splice(at..at, *b"000");
                (bytes, at)
            }
            5 => {
                bytes[at..end].make_ascii_uppercase();
                (bytes, at)
            }
            6 => {
                // Short hex: drop the token's leading zeros, or its first digit.
                let zeros = bytes[at..end].iter().take_while(|&&b| b == b'0').count();
                bytes.drain(at..at + zeros.max(1).min(end - at));
                (bytes, at)
            }
            7 => {
                bytes.splice(at..at, *b"99999999999999999999");
                (bytes, at)
            }
            8 => {
                bytes.insert(at, b'-');
                (bytes, at)
            }
            _ => {
                bytes.splice(at..at, *b"+-");
                (bytes, at)
            }
        };
        (String::from_utf8_lossy(&bytes).into_owned(), damaged)
    }

    #[test]
    fn readers_match_the_reference_on_a_mutation_corpus() {
        let payloads = counter_payloads("reader-payloads");
        let mut rng = Rng64::new(0xdec0_de00);
        // Every real token, read by the reader its shape names.
        for (stage, payload) in &payloads {
            let left = differential_walk(payload, &mut rng, usize::MAX, 0);
            assert_eq!(left, 0, "{stage}: guided walk stopped early");
        }
        // Random short token strings, random readers from the start.
        for _ in 0..40_000 {
            let text = random_tokens(&mut rng);
            differential_walk(&text, &mut rng, 16, 1);
        }
        // Mutated payloads: walk from a few tokens before the damage, and
        // the stage's whole-payload decoder must return without panicking.
        for round in 0..3_000 {
            let (stage, payload) = &payloads[round % payloads.len()];
            let donor = &payloads[rng.range_usize(0, payloads.len())].1;
            let (text, damaged) = mutate(payload, donor, &mut rng);
            let before: Vec<usize> = token_starts(&text)
                .into_iter()
                .filter(|&i| i <= damaged)
                .collect();
            let start = before[before.len().saturating_sub(rng.range_usize(1, 9))];
            differential_walk(&text[start..], &mut rng, 400, 8);
            // Either answer is fine; a panic is not.
            let _ = decodes(stage, &text);
        }
    }

    #[test]
    fn oversized_string_length_is_a_miss_not_a_panic() {
        // A length near `usize::MAX` must not overflow `start + len`: that
        // panics under overflow checks and wraps the index otherwise.
        assert!(decode_synth("1 5:synth 18446744073709551615:abc ").is_none());
        let mut d = Dec::raw("18446744073709551615:");
        assert_eq!(d.s(), None);
    }

    /// [`decimal`] against [`digits`] on `bytes[from..]`: the same answer,
    /// always. Returns whether [`short_decimal`] took the token.
    fn same_as_digits(bytes: &[u8], from: usize, stop: u8) -> bool {
        let fast = bytes.get(from..).and_then(|rest| short_decimal(rest, stop));
        assert_eq!(
            decimal(bytes, from, stop),
            digits(bytes, from, stop, 10),
            "{:?} from {from}, stop {:?}",
            String::from_utf8_lossy(bytes),
            char::from(stop)
        );
        fast.is_some()
    }

    #[test]
    fn short_decimals_match_digits() {
        // One to seven digits, the terminator at each position of the
        // eight-byte window, and exactly eight digits (too long).
        for stop in [b' ', b':'] {
            for len in 1..=8 {
                for digit_run in ["12345678", "98765432", "00000000", "99999999", "00000009"] {
                    let mut bytes = digit_run.as_bytes()[..len].to_vec();
                    bytes.push(stop);
                    bytes.extend_from_slice(b"7 8 9 10");
                    assert_eq!(same_as_digits(&bytes, 0, stop), len < 8, "{len} digits");
                    let other = if stop == b' ' { b':' } else { b' ' };
                    assert!(!same_as_digits(&bytes, 0, other), "wrong terminator");
                }
            }
        }
        // Leading zeros, signs, the largest and the first overflowing u64.
        assert!(same_as_digits(b"0000007 xyz", 0, b' '));
        assert!(!same_as_digits(b"+1234 xyzw", 0, b' '));
        assert!(same_as_digits(b"+1234 xyzw", 1, b' '));
        assert!(!same_as_digits(b"-0 abcdefg", 0, b' '));
        assert!(same_as_digits(b"-0 abcdefg", 1, b' '));
        assert!(!same_as_digits(b"+-5 abcdef", 1, b' '));
        assert!(!same_as_digits(b"18446744073709551615 ", 0, b' '));
        assert!(!same_as_digits(b"18446744073709551616 ", 0, b' '));
        // A byte at or above 0x80 right after the digits, and after the
        // terminator (where a borrow or carry may flag a digit falsely).
        for high in [0x80, 0xB9, 0xBA, 0xC3, 0xFF] {
            assert!(!same_as_digits(
                &[b'4', b'2', high, b' ', b'1', b' ', b'2', b' '],
                0,
                b' '
            ));
            assert!(same_as_digits(
                &[b'4', b'2', b' ', high, b'1', high, b'2', high],
                0,
                b' '
            ));
            assert!(same_as_digits(
                &[b'4', b' ', high, high, high, high, high, high],
                0,
                b' '
            ));
        }
        // Bytes just outside the digit range, in and after the token.
        for near in [b'/', b':', b';'] {
            assert!(!same_as_digits(
                &[b'1', near, b'2', b' ', b'3', b' ', b'4', b' '],
                0,
                b' '
            ));
            assert!(same_as_digits(
                &[b'1', b' ', near, b'2', near, b' ', b'3', b' '],
                0,
                b' '
            ));
        }
        // Fewer than eight bytes left.
        assert!(!same_as_digits(b"1234 ", 0, b' '));
        assert!(!same_as_digits(b"1234567", 0, b' '));
        assert!(!same_as_digits(b"12 4567", 1, b' '));
        assert!(!same_as_digits(b"", 0, b' '));
        assert!(!same_as_digits(b"1", 2, b' '));
        // Random windows over those bytes, at every start offset.
        const ALPHABET: &[u8] = b"0123456789 :+-/;\x80\xBA\xFF";
        let mut rng = Rng64::new(0x5a4d_0d16);
        let mut fast = 0;
        for _ in 0..200_000 {
            let digits_first = rng.range_usize(0, 9);
            let mut bytes: Vec<u8> = (0..digits_first)
                .map(|_| b'0' + rng.range_usize(0, 10) as u8)
                .collect();
            for _ in 0..rng.range_usize(0, 10) {
                bytes.push(ALPHABET[rng.range_usize(0, ALPHABET.len())]);
            }
            for from in 0..=bytes.len() {
                fast += usize::from(same_as_digits(&bytes, from, b' '));
                fast += usize::from(same_as_digits(&bytes, from, b':'));
            }
        }
        assert!(fast > 10_000, "the fast path took only {fast} windows");
    }

    /// Encodes `v`, decodes it, and checks that the decoded value encodes
    /// to the same bytes and that the tokens under another stage tag are
    /// rejected. Returns the decoded value.
    fn round_trip<T: Codec>(v: &T) -> T {
        let mut e = Enc::new("t");
        v.enc(&mut e);
        let text = e.finish();
        let mut d = Dec::new(&text, "t").expect("tag");
        let back = T::dec(&mut d).expect("decode");
        assert!(d.done(), "tokens left over");
        let mut again = Enc::new("t");
        back.enc(&mut again);
        assert_eq!(again.finish(), text, "re-encoding drifted");
        assert!(Dec::new(&text, "other").is_none(), "wrong stage tag");
        back
    }

    /// [`round_trip`], and the decoded value equals `v`.
    fn round_trip_eq<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        assert_eq!(&round_trip(v), v);
    }

    #[test]
    fn codec_scalars_round_trip() {
        // Floats compare by bits: `-0.0 == 0.0` and NaN payload bits are
        // invisible to `==`.
        round_trip_eq(&0u64);
        round_trip_eq(&u64::MAX);
        round_trip_eq(&-42i64);
        round_trip_eq(&i64::MIN);
        round_trip_eq(&i128::MIN);
        round_trip_eq(&true);
        for x in [-0.0, f64::NAN, f64::from_bits(0x7ff8_0000_dead_beef)] {
            assert_eq!(round_trip(&x).to_bits(), x.to_bits());
        }
        for s in ["", "hello world:with 3 tokens", " ", ":", "日本語 🦀:7 "] {
            round_trip_eq(&s.to_owned());
        }
    }

    #[test]
    fn point_data_round_trips() {
        // A captured trace with all four attribute kinds and every metric
        // kind.
        let (_, data) = ffet_obs::capture(|| {
            let root = ffet_obs::span("flow.synth")
                .attr("k", "v")
                .attr("n", -3_i64)
                .attr("x", 0.5)
                .attr("ok", true);
            ffet_obs::counter_add("c", 3);
            ffet_obs::gauge_set("g", 1.5);
            ffet_obs::observe("h", 0.25);
            let inner = ffet_obs::span("rcx.batch").attr("batch", 0_i64);
            inner.close();
            root.close();
        });
        let mut stripped = data.clone();
        ffet_obs::strip_point_timing(&mut stripped);
        round_trip_eq(&stripped);
    }

    /// The stored payload of `stage` among `counter_flow`'s payloads.
    fn stored(payloads: &[(String, String)], stage: Stage) -> &str {
        let found = payloads.iter().find(|(s, _)| s == stage.name());
        found.expect("one payload per stage").1.as_str()
    }

    #[test]
    fn netlist_payload_round_trips_byte_exactly() {
        // The post-synth netlist of a real counter flow, as stored.
        let (_, library, payloads) = counter_flow("round-trip-synth");
        let stored = stored(&payloads, Stage::Synth);
        let (netlist, data) = decode_synth(stored).expect("synth decode");
        assert_eq!(encode_synth(&netlist, &data), stored);
        round_trip_eq(&data);
        let back = round_trip(&netlist);
        assert_eq!(back.name(), netlist.name());
        assert_eq!(back.instances().len(), netlist.instances().len());
        back.check_consistency(&library).expect("consistent");
    }

    #[test]
    fn full_stage_payloads_round_trip_through_a_real_flow() {
        // Every later stage artifact of a real counter flow, as stored:
        // each payload re-encodes to its stored bytes, and each artifact
        // matches the live outcome of the flow that stored it.
        let (outcome, _, payloads) = counter_flow("round-trip");
        let stored = |stage| stored(&payloads, stage);

        let (value, data) = decode_pnr(stored(Stage::Pnr)).expect("pnr decode");
        assert_eq!(encode_pnr(&value, &data), stored(Stage::Pnr));
        let (_, pnr) = round_trip(&value);
        assert_eq!(pnr.routing.wirelength_nm, outcome.pnr.routing.wirelength_nm);
        assert_eq!(pnr.front_def, outcome.pnr.front_def);
        assert_eq!(pnr.back_def, outcome.pnr.back_def);
        assert_eq!(pnr.placement, outcome.pnr.placement);

        let (merged, data) = decode_merge(stored(Stage::Merge)).expect("merge decode");
        assert_eq!(encode_merge(&merged, &data), stored(Stage::Merge));
        assert_eq!(merged, outcome.merged_def);
        round_trip_eq(&merged);

        let (signoff, data) =
            decode_signoff_payload(stored(Stage::Signoff)).expect("signoff decode");
        assert_eq!(
            encode_signoff_payload(&signoff, &data),
            stored(Stage::Signoff)
        );
        assert_eq!(signoff, outcome.signoff);
        round_trip_eq(&signoff);

        let (parasitics, data) = decode_rcx(stored(Stage::Rcx)).expect("rcx decode");
        assert_eq!(encode_rcx(&parasitics, &data), stored(Stage::Rcx));
        assert_eq!(parasitics, outcome.parasitics);
        assert!(parasitics.iter().any(Option::is_none), "a None slot");
        round_trip_eq(&parasitics);

        let (value, data) = decode_sta(stored(Stage::Sta)).expect("sta decode");
        assert_eq!(encode_sta(&value, &data), stored(Stage::Sta));
        round_trip_eq(&value);
        let (timing, power) = value;
        assert_eq!(timing, outcome.timing);
        assert_eq!(power.clock_mw, outcome.report.clock_mw);
        assert_eq!(power.leakage_mw, outcome.report.leakage_mw);
        assert_eq!(power.total_mw(), outcome.report.power_mw);
    }

    /// A stored `stage` payload, decoded and encoded again.
    fn reencoded(stage: Stage, body: &str) -> String {
        fn again<T: Codec>(stage: Stage, body: &str) -> String {
            let (value, data) = decode::<T>(stage, body).expect("decodes");
            encode(stage, &value, &data)
        }
        match stage {
            Stage::Synth => again::<Netlist>(stage, body),
            Stage::Pnr => again::<(Netlist, PnrResult)>(stage, body),
            Stage::Merge => again::<Def>(stage, body),
            Stage::Signoff => again::<SignoffReport>(stage, body),
            Stage::Rcx => again::<Vec<Option<NetParasitics>>>(stage, body),
            Stage::Sta => again::<(TimingReport, PowerReport)>(stage, body),
        }
    }

    #[test]
    fn codec_hashes_are_the_content_addresses() {
        // The counter flow, and the RV32 point of
        // `tests/stage_cache.rs::rv32_stage_payloads_are_pinned`.
        let (counter, library, netlist) = small_flow_pieces();
        let rv32 = FlowConfig {
            tech: TechKind::Ffet3p5t,
            pattern: ffet_tech::RoutingPattern::new(12, 12).expect("static"),
            back_pin_ratio: 0.5,
            utilization: 0.625,
            aspect_ratio: 1.0,
            target_freq_ghz: 1.5,
            activity: 0.15,
            seed: 42,
            bridging_min_nm: None,
            extra_reroute_rounds: 0,
            max_attempts: 1,
            route_jobs: 1,
            deadline_ms: None,
            fault_plan: crate::FaultPlan::default(),
            stage_cache: None,
        };
        let rv32_library = rv32.build_library().expect("valid config");
        let flows = [
            ("hash-counter", counter, &library, netlist),
            (
                "hash-rv32",
                rv32,
                &rv32_library,
                crate::designs::rv32_core(&rv32_library),
            ),
        ];
        for (tag, mut config, library, netlist) in flows {
            let dir = scratch(tag);
            config.stage_cache = Some(dir.clone());
            crate::run_flow(&netlist, library, &config).expect("flow");
            for (name, addr, body) in stored_blobs(&dir) {
                let stage = Stage::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .expect("stage");
                assert_eq!(
                    reencoded(stage, &body),
                    body,
                    "{tag} {name}: re-encoding drifted"
                );
                assert_eq!(
                    hash_hex(blob_hash(body.as_bytes())),
                    addr,
                    "{tag} {name}: blob name"
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The first `len` bytes of a fixed 200-byte pattern.
    fn hash_input(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37) ^ 0x5a)
            .collect()
    }

    #[test]
    fn blob_hash_has_known_answers() {
        // Lengths around the 8-byte word and the 32-byte stripe. The words
        // are read little-endian, so these hold on any host.
        let known = [
            (0, 0x7be5_60e1_70df_7177),
            (1, 0xbb3b_8b0a_1d0e_084b),
            (7, 0xa9bc_d1c3_2834_51ff),
            (8, 0xd1e1_51f2_8878_2401),
            (63, 0x6c9b_0263_5ebb_75cf),
            (64, 0x68d4_a4ca_e325_eb39),
            (65, 0x53d9_de64_32da_f4de),
            (128, 0x550c_de04_bf97_0020),
        ];
        for (len, want) in known {
            let got = blob_hash(&hash_input(len));
            assert_eq!(got, want, "length {len}: {got:#018x}");
        }
    }

    #[test]
    fn blob_hash_changes_on_every_flip_and_truncation() {
        // Every single-bit flip and every proper prefix of a 200-byte
        // payload hashes differently from it, and from each other.
        let payload = hash_input(200);
        let mut seen = BTreeSet::from([blob_hash(&payload)]);
        for at in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[at] ^= 1 << bit;
                assert!(seen.insert(blob_hash(&flipped)), "bit {bit} of byte {at}");
            }
        }
        for len in 0..payload.len() {
            assert!(seen.insert(blob_hash(&payload[..len])), "prefix of {len}");
        }
    }

    /// A pnr artifact holding one front routed net and its side-DEF net,
    /// and nothing else.
    fn tiny_pnr() -> PnrResult {
        let die = Rect::new(0, 0, 100, 100);
        let layer = LayerId {
            side: Side::Front,
            index: 1,
        };
        let wires = vec![DefWire {
            layer,
            from: Point::new(5, 5),
            to: Point::new(50, 5),
        }];
        let mut front_def = Def::new("d", die);
        front_def.nets.push(DefNet {
            name: "a".to_owned(),
            connections: Vec::new(),
            wires: wires.clone(),
            vias: Vec::new(),
        });
        PnrResult {
            floorplan: Floorplan {
                die,
                core: die,
                rows: Vec::new(),
                target_utilization: 0.5,
                cell_area_nm2: 0,
            },
            powerplan: PowerPlan {
                special_nets: Vec::new(),
                taps: Vec::new(),
                vss_stripe_x: Vec::new(),
            },
            placement: Placement {
                origins: Vec::new(),
                orients: Vec::new(),
                violations: 0,
                hpwl_nm: 0,
                port_positions: Vec::new(),
            },
            clock: ClockTree {
                buffers: Vec::new(),
                levels: 0,
                sink_count: 0,
            },
            routing: RoutingResult {
                nets: vec![RoutedNet {
                    net: NetId(0),
                    side: Side::Front,
                    wires,
                    vias: Vec::new(),
                }],
                overflow_tracks: 0.0,
                drv_count: 0,
                wirelength_nm: 45,
                via_count: 0,
                peak_congestion: 0.0,
                back_wirelength_nm: 0,
                hot_gcells: Vec::new(),
            },
            front_def,
            back_def: Def::new("d", die),
        }
    }

    #[test]
    fn side_def_nets_unlike_their_routed_nets_round_trip_explicitly() {
        // The pnr artifact of a real counter flow, with one front-DEF
        // net's wires and one back-DEF component made to differ from what
        // the payload would otherwise refer to: both are written out.
        let (outcome, _, payloads) = counter_flow("explicit-path");
        let stored = stored(&payloads, Stage::Pnr);
        let ((netlist, mut pnr), data) = decode_pnr(stored).expect("pnr decode");
        let net = pnr.front_def.nets.iter_mut().find(|n| !n.wires.is_empty());
        net.expect("a routed front net").wires[0].to.x += 1;
        pnr.back_def.components[0].origin.x += 1;
        let back = round_trip(&pnr);
        assert_eq!(back.front_def, pnr.front_def);
        assert_eq!(back.back_def, pnr.back_def);
        assert_eq!(back.routing.nets, outcome.pnr.routing.nets);
        let payload = encode_pnr(&(netlist, pnr), &data);
        assert!(
            payload.len() > stored.len(),
            "the explicit lists are written"
        );
        // The DEF of a hand-built artifact with no routed net to refer to.
        let mut lone = tiny_pnr();
        lone.routing.nets.clear();
        let back = round_trip(&lone);
        assert_eq!(
            (back.front_def, back.back_def),
            (lone.front_def, lone.back_def)
        );
    }

    /// Whether `T` decodes from exactly the tokens `write` emits.
    fn accepts<T: Codec>(write: impl FnOnce(&mut Enc)) -> bool {
        let mut e = Enc::new("t");
        write(&mut e);
        let text = e.finish();
        let mut d = Dec::new(&text, "t").expect("tag");
        T::dec(&mut d).is_some() && d.done()
    }

    #[test]
    fn well_formed_tokens_outside_the_grammar_are_rejected() {
        // Each rejected stream sits next to an accepted neighbour, so a
        // rejection is the rule under test and not a malformed stream.
        let attr = |tag: u64| {
            move |e: &mut Enc| {
                e.u(tag);
                e.b(true);
            }
        };
        assert!(accepts::<AttrValue>(attr(3)));
        assert!(!accepts::<AttrValue>(attr(4)), "attribute tag 4");
        assert!(accepts::<bool>(|e| e.u(1)));
        assert!(!accepts::<bool>(|e| e.u(2)), "bool token 2");
        assert!(!accepts::<Side>(|e| e.u(2)), "flag token 2");

        // A histogram followed by one more `u64`, given N + 1 values after
        // its bucket count: only a count of exactly N splits them.
        let n = Histogram::default().buckets.len() as u64;
        let histogram = |count: u64| {
            move |e: &mut Enc| {
                e.u(1);
                e.f(0.5);
                e.f(0.5);
                e.f(0.5);
                e.u(count);
                for v in 0..=n {
                    e.u(v);
                }
            }
        };
        assert!(accepts::<(Histogram, u64)>(histogram(n)));
        assert!(
            !accepts::<(Histogram, u64)>(histogram(n - 1)),
            "N - 1 buckets"
        );
        assert!(
            !accepts::<(Histogram, u64)>(histogram(n + 1)),
            "N + 1 buckets"
        );

        let layer = |index: u64| {
            move |e: &mut Enc| {
                e.b(true);
                e.u(index);
            }
        };
        assert!(accepts::<LayerId>(layer(255)));
        assert!(!accepts::<LayerId>(layer(256)), "layer index 256");
        let gcell = |x: u64| {
            move |e: &mut Enc| {
                e.u(x);
                e.u(7);
                e.b(false);
                e.f(1.0);
                e.f(2.0);
            }
        };
        type Gcell = (u16, u16, Side, f64, f64);
        assert!(accepts::<Gcell>(gcell(65_535)));
        assert!(!accepts::<Gcell>(gcell(65_536)), "gcell coordinate 65536");
        assert!(accepts::<NetId>(|e| e.u(u64::from(u32::MAX))));
        assert!(!accepts::<NetId>(|e| e.u(1 << 32)), "id 2^32");
        assert!(accepts::<&'static str>(|e| e.s("drc.open")));
        assert!(
            !accepts::<&'static str>(|e| e.s("drc.opens")),
            "unknown rule id"
        );

        let seq = |count: u64| {
            move |e: &mut Enc| {
                e.u(count);
                e.u(1);
                e.u(2);
            }
        };
        assert!(accepts::<Vec<u64>>(seq(2)));
        assert!(!accepts::<Vec<u64>>(seq(5)), "count past the input");
        // A count of every byte left, over a type some fifty times larger in
        // memory than its shortest token: rejected at the second element,
        // having reserved no more than the bytes left.
        let net = DefNet {
            name: "a".to_owned(),
            connections: Vec::new(),
            wires: Vec::new(),
            vias: Vec::new(),
        };
        let filler = 1 << 20;
        assert!(accepts::<Vec<DefNet>>(|e| {
            e.u(1);
            net.enc(e);
        }));
        assert!(
            !accepts::<Vec<DefNet>>(|e| {
                e.u(2 * filler);
                net.enc(e);
                for _ in 0..filler {
                    e.u(0);
                }
            }),
            "a count of every byte left"
        );

        // A pnr artifact whose front-DEF net refers to routed net `index`,
        // with the front DEF's "same components" flag `front_flag`.
        let pnr = tiny_pnr();
        let pnr_tokens = |index: u64, front_flag: bool| {
            let pnr = &pnr;
            move |e: &mut Enc| {
                pnr.floorplan.enc(e);
                pnr.powerplan.enc(e);
                pnr.placement.enc(e);
                pnr.clock.enc(e);
                pnr.routing.enc(e);
                let front = &pnr.front_def;
                front.design.enc(e);
                front.dbu_per_micron.enc(e);
                front.die.enc(e);
                e.b(front_flag);
                if !front_flag {
                    front.components.enc(e);
                }
                e.u(1);
                front.nets[0].name.enc(e);
                front.nets[0].connections.enc(e);
                Some(index).enc(e);
                front.special_nets.enc(e);
                enc_side_def(e, &pnr.back_def, Some(front), &pnr.routing);
            }
        };
        assert!(accepts::<PnrResult>(pnr_tokens(0, false)));
        assert!(
            !accepts::<PnrResult>(pnr_tokens(1, false)),
            "routed-net index past the end"
        );
        assert!(
            !accepts::<PnrResult>(pnr_tokens(0, true)),
            "same-components flag on the front DEF"
        );

        // Whole payloads: a synth payload whose two nets are named `a` and
        // `b`, then one whose nets are both `a`.
        let synth = |second: &str| {
            let net = |name: &str| Net {
                name: name.to_owned(),
                driver: None,
                sinks: Vec::new(),
                is_clock: false,
            };
            let mut e = Enc::new(Stage::Synth.name());
            "d".enc(&mut e);
            e.u(0);
            [net("a"), net(second)].enc(&mut e);
            e.u(0);
            PointData::default().enc(&mut e);
            e.finish()
        };
        let payload = synth("b");
        assert!(decode_synth(&payload).is_some());
        assert!(decode_synth(&synth("a")).is_none(), "duplicate net names");
        assert!(
            decode_synth(&format!("{payload}0 ")).is_none(),
            "trailing token"
        );
        assert!(decode_merge(&payload).is_none(), "wrong stage tag");
        let (version, rest) = payload.split_once(' ').expect("version token");
        assert_eq!(version, PAYLOAD_VERSION.to_string());
        let next = format!("{} {rest}", PAYLOAD_VERSION + 1);
        assert!(decode_synth(&next).is_none(), "PAYLOAD_VERSION + 1");
    }

    #[test]
    fn store_lookup_and_poisoned_blob_semantics() {
        let dir = scratch("store");
        let cache = StageCache::new(&dir);
        let key = "sc1|test|abc";
        assert!(cache.lookup(key).is_none(), "cold cache misses");
        let addr = cache.store(key, "synth", "payload body").expect("store");
        let (addr2, body) = cache.lookup(key).expect("hit");
        assert_eq!(addr, addr2);
        assert_eq!(body, "payload body");
        // Poison the blob: lookup must become a deterministic miss.
        fs::write(dir.join(format!("{addr}.blob")), b"tampered").expect("tamper");
        assert!(cache.lookup(key).is_none(), "poisoned blob is a miss");
        // verify reports it; gc removes it together with the dangling link.
        let v = verify(&dir).expect("verify");
        assert_eq!(v.corrupt, vec![addr.clone()]);
        assert_eq!(v.dangling, 1);
        let g = gc(&dir).expect("gc");
        assert_eq!(g.removed_blobs, 1);
        assert_eq!(g.removed_links, 1);
        assert!(!dir.join(format!("{addr}.blob")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_gc_account_sizes() {
        let dir = scratch("stats");
        let cache = StageCache::new(&dir);
        let a = cache.store("k1", "synth", "aaaa").expect("store");
        let _b = cache.store("k2", "pnr", "bbbbbbbb").expect("store");
        // Same payload under another key: deduplicated blob, second link.
        let a2 = cache.store("k3", "synth", "aaaa").expect("store");
        assert_eq!(a, a2);
        let s = stats(&dir).expect("stats");
        assert_eq!(s.blobs, 2);
        assert_eq!(s.links, 3);
        assert_eq!(s.blob_bytes, 12);
        assert_eq!(s.per_stage["synth"], (1, 4));
        assert_eq!(s.per_stage["pnr"], (1, 8));
        assert_eq!(s.unattributed, 0);
        // Remove the links to k2: its blob becomes garbage.
        fs::remove_file(dir.join(format!("{}.key", hash_hex(blob_hash(b"k2"))))).expect("rm");
        let g = gc(&dir).expect("gc");
        assert_eq!(g.removed_blobs, 1);
        assert_eq!(g.freed_bytes, 8);
        assert_eq!(g.kept_blobs, 1);
        let s = stats(&dir).expect("stats");
        assert_eq!(s.blobs, 1);
        assert!(!s.per_stage.contains_key("pnr"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_stage_misses_on_a_tampered_blob_that_still_decodes() {
        let dir = scratch("tamper");
        let cache = StageCache::new(&dir);
        let computed = std::cell::Cell::new(0);
        let run = |value: Vec<i64>| {
            let key = Some("sc1|test|tamper".to_owned());
            run_stage::<_, ()>(Some(&cache), key, Stage::Pnr, || {
                computed.set(computed.get() + 1);
                Ok(value)
            })
        };
        let coords = vec![1200, -340, 56];
        let (_, addr) = run(coords.clone()).expect("computed");
        let addr = addr.expect("stored");
        let hit = Ok((coords.clone(), Some(addr.clone())));
        assert_eq!(run(Vec::new()), hit, "a clean blob hits");
        assert_eq!(computed.get(), 1);

        // Flip one digit of a coordinate: the body still decodes, to other
        // coordinates, but no longer hashes to the blob's name.
        let blob = blob_path(&dir, &addr);
        let body = fs::read_to_string(&blob).expect("blob");
        let tampered = body.replacen(" 1200 ", " 1201 ", 1);
        let decoded = decode::<Vec<i64>>(Stage::Pnr, &tampered).map(|(v, _)| v);
        assert_eq!(decoded, Some(vec![1201, -340, 56]));
        fs::write(&blob, tampered).expect("tamper");
        assert_eq!(
            run(coords.clone()),
            hit,
            "recomputed, not the tampered value"
        );
        assert_eq!(computed.get(), 2, "a tampered blob is a miss");
        assert_eq!(verify(&dir).expect("verify").corrupt, vec![addr]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_stage_inline_without_cache() {
        let out = run_stage::<u32, ()>(None, None, Stage::Synth, || Ok(7));
        assert_eq!(out, Ok((7, None)));
    }

    #[test]
    fn keys_separate_stages_and_configs() {
        let (config, _library, netlist) = small_flow_pieces();
        let k1 = synth_key(&config, &netlist);
        let mut faster = config.clone();
        faster.target_freq_ghz = 3.0;
        assert_ne!(k1, synth_key(&faster, &netlist));
        // Synth shares across the back-pin-ratio and seed axes…
        let mut bp = config.clone();
        bp.back_pin_ratio = 0.3;
        bp.seed = 7;
        assert_eq!(k1, synth_key(&bp, &netlist));
        // …but pnr does not.
        assert_ne!(pnr_key(&config, "aa"), pnr_key(&bp, "aa"));
        // Wall-clock knobs never reach a key.
        let mut wide = config.clone();
        wide.route_jobs = 16;
        wide.deadline_ms = Some(5);
        wide.max_attempts = 9;
        assert_eq!(pnr_key(&config, "aa"), pnr_key(&wide, "aa"));
        // Upstream address changes cascade.
        assert_ne!(merge_key("aa"), merge_key("bb"));
        assert_ne!(sta_key(&config, "aa", "cc"), sta_key(&config, "aa", "dd"));
    }
}
