//! Deterministic checkpoint/restore plumbing for the CRISP simulator.
//!
//! Trace-driven cycle simulation is slow; the standard mitigation — used by
//! the parallel Accel-Sim work this repo reproduces — is to snapshot the full
//! architectural state mid-run and resume (or fast-forward) from there. This
//! crate provides the *format* layer for those snapshots:
//!
//! * [`Wire`]: a context-free value codec. [`Writer::put`] and
//!   [`Reader::get`] encode any `Wire` value: the primitives (fixed-width
//!   `u8`/`u16`/`u32`, LEB128 `u64`/`usize`, zig-zag `i64`, bit-exact
//!   `f64`, strict `bool`), strings, the trace-level ids, tags and paging
//!   statistics, the `crisp-obs` trace recorder and its events, and the
//!   standard containers built from them. Every
//!   collection read is length-capped at [`MAX_LEN`] and pre-allocates at
//!   most [`MAX_PREALLOC_BYTES`], so corrupt input fails with `Err` instead
//!   of panicking or exhausting memory.
//! * [`wire_struct!`]: declares a struct's checkpointed fields *once* and
//!   generates both directions from that single list, with an optional
//!   validation function run after the read.
//! * [`wire_tags!`]: the one-byte tag encoding of a fieldless enum, with
//!   unknown tags rejected.
//! * [`CheckpointState`]: the trait for the few components whose restore
//!   needs outside context — configuration that the checkpoint stores once
//!   at the top level, or the run's trace source for paging resident CTAs
//!   back in. Such restores read their fields with [`Reader::get`] and then
//!   validate them against that context.
//!
//! Since format version 2 a checkpoint stores no inline kernel payloads:
//! resident warps are saved as `(kernel id, cta index)` cursors into the
//! run's trace source, and the checkpoint carries the source's *provenance*
//! (a path, or the raw CRSP container bytes) so restore re-opens the source
//! and demand-pages the resident CTAs back in.
//!
//! The same layer also encodes `crisp-serve`'s wire protocol and spool
//! manifest, so checkpoints and daemon messages share one codec.
//!
//! The determinism contract is that encoding walks every collection in a
//! deterministic order: hash maps are written with sorted keys and heaps as
//! sorted lists, so the byte stream — and therefore the restored simulator
//! — is identical no matter how many worker threads produced the state.
//!
//! A checkpoint starts with the magic tag `CKPT` and a version word, written
//! and checked through the same found-vs-expected helpers as the `CRSP`
//! trace format, so mixing the two file kinds up fails with a message naming
//! both.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::io::{self, Read, Write};

use crisp_obs::{CounterSample, InstantEvent, SpanEvent, TraceLog, TraceRecorder, Track};
use crisp_trace::codec::{
    check_magic, check_version, read_string, read_varint, unzigzag, write_string, write_varint,
    zigzag,
};
use crisp_trace::{DataClass, KernelId, Reg, Space, StreamId, StreamKind, TraceStats};

/// Magic tag opening every checkpoint file.
pub const MAGIC: &[u8; 4] = b"CKPT";

/// Checkpoint format version. Version 2 replaced inline kernel payloads
/// (the old kernel-interning table) with trace-source provenance plus
/// per-warp `(kernel id, cta index)` cursors. Version 3 added named
/// barriers: per-slot arrival counts on every resident CTA and a barrier
/// slot byte on parked warps.
pub const VERSION: u32 = 3;

/// Human-readable format name used in found-vs-expected error messages.
pub const FORMAT_NAME: &str = "CKPT checkpoint";

/// The largest element count any collection read accepts. Bounds that
/// depend on the configuration (warp slots, queue depths, bank counts) are
/// checked by the component after the read.
pub const MAX_LEN: usize = 1 << 28;

/// The most memory a collection read reserves up front; larger collections
/// grow as their elements actually arrive, so a corrupt length that passes
/// [`MAX_LEN`] cannot commit a huge allocation before hitting EOF.
pub const MAX_PREALLOC_BYTES: usize = 1 << 20;

/// An `InvalidData` error with the given message.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A value with one fixed checkpoint encoding that needs no outside
/// context to decode.
pub trait Wire: Sized {
    /// Encode `self`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()>;

    /// Decode a value. Must return `Err` — never panic — on corrupt input.
    ///
    /// # Errors
    ///
    /// `InvalidData` on corrupt input; I/O errors otherwise.
    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self>;
}

/// State whose restore needs context the checkpoint stores elsewhere —
/// typically the configuration (geometry, capacities) or the run's trace
/// source. Everything else is a [`Wire`] value.
pub trait CheckpointState: Sized {
    /// Context borrowed during restore.
    type RestoreCtx<'a>;

    /// Serialize `self` deterministically.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn save<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()>;

    /// Rebuild a value from the stream. Implementations must validate every
    /// index and capacity against `ctx` and return `Err` — never panic — on
    /// corrupt input.
    ///
    /// # Errors
    ///
    /// `InvalidData` on corrupt input; I/O errors otherwise.
    fn restore<R: Read>(r: &mut Reader<R>, ctx: Self::RestoreCtx<'_>) -> io::Result<Self>;
}

/// Checkpoint writer: a thin typed layer over any [`Write`].
#[derive(Debug)]
pub struct Writer<W: Write> {
    inner: W,
}

impl<W: Write> Writer<W> {
    /// Wrap a sink. Call [`Writer::header`] first for a standalone file.
    pub fn new(inner: W) -> Self {
        Writer { inner }
    }

    /// Write the `CKPT` magic and version.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn header(&mut self) -> io::Result<()> {
        self.inner.write_all(MAGIC)?;
        self.inner.write_all(&VERSION.to_le_bytes())
    }

    /// Encode one [`Wire`] value.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn put<T: Wire>(&mut self, v: &T) -> io::Result<()> {
        v.put(self)
    }

    /// Write an `Option` as a presence byte plus the value, encoding the
    /// value with `f` (for types that are not [`Wire`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O and callback errors.
    pub fn option<T>(
        &mut self,
        v: Option<&T>,
        f: impl FnOnce(&mut Self, &T) -> io::Result<()>,
    ) -> io::Result<()> {
        match v {
            Some(x) => {
                self.put(&1u8)?;
                f(self, x)
            }
            None => self.put(&0u8),
        }
    }

    /// Write a length-prefixed sequence, encoding each item with `f` (for
    /// element types that are not [`Wire`]). Reads back with
    /// [`Reader::seq`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and callback errors.
    pub fn seq<I>(
        &mut self,
        items: I,
        mut f: impl FnMut(&mut Self, I::Item) -> io::Result<()>,
    ) -> io::Result<()>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put(&items.len())?;
        for item in items {
            f(self, item)?;
        }
        Ok(())
    }

    /// Write a length-prefixed raw byte blob (e.g. an embedded CRSP
    /// container for checkpoint self-containment).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.put(&b.len())?;
        self.inner.write_all(b)
    }
}

/// Checkpoint reader: the counterpart of [`Writer`], with every
/// length-driven allocation capped.
#[derive(Debug)]
pub struct Reader<R: Read> {
    inner: R,
}

impl<R: Read> Reader<R> {
    /// Wrap a source. Call [`Reader::header`] first for a standalone file.
    pub fn new(inner: R) -> Self {
        Reader { inner }
    }

    /// Check the `CKPT` magic and version, reporting found-vs-expected.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a foreign magic or version.
    pub fn header(&mut self) -> io::Result<()> {
        check_magic(&mut self.inner, MAGIC, FORMAT_NAME)?;
        check_version(&mut self.inner, VERSION, FORMAT_NAME)
    }

    /// Decode one [`Wire`] value.
    ///
    /// # Errors
    ///
    /// `InvalidData` on corrupt input; I/O errors otherwise.
    pub fn get<T: Wire>(&mut self) -> io::Result<T> {
        T::get(self)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.inner.read_exact(&mut b)?;
        Ok(b)
    }

    /// Read a collection length, capped at [`MAX_LEN`].
    fn len(&mut self) -> io::Result<usize> {
        let n = read_varint(&mut self.inner)?;
        if n > MAX_LEN as u64 {
            return Err(bad(format!("length {n} exceeds cap {MAX_LEN}")));
        }
        Ok(n as usize)
    }

    /// Read an `Option` written by [`Writer::option`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad presence byte; propagates callback errors.
    pub fn option<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        match self.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(bad(format!("bad option tag {b}"))),
        }
    }

    /// Read a sequence written by [`Writer::seq`] (or any `Wire` sequence),
    /// decoding each element with `f`.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an oversized length; propagates callback errors.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> io::Result<T>) -> io::Result<Vec<T>> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(prealloc::<T>(n));
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }

    /// Read a length-prefixed byte blob written by [`Writer::bytes`],
    /// with the length capped at `cap`.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the length exceeds `cap`; I/O errors otherwise.
    pub fn bytes(&mut self, cap: usize) -> io::Result<Vec<u8>> {
        let n = read_varint(&mut self.inner)?;
        if n > cap as u64 {
            return Err(bad(format!("length {n} exceeds cap {cap}")));
        }
        // Read in bounded chunks so a corrupt length that passes `cap`
        // cannot commit the full allocation before hitting EOF.
        let mut remaining = n as usize;
        let mut buf = Vec::with_capacity(remaining.min(MAX_PREALLOC_BYTES));
        let mut chunk = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            self.inner.read_exact(&mut chunk[..take])?;
            buf.extend_from_slice(&chunk[..take]);
            remaining -= take;
        }
        Ok(buf)
    }
}

/// Capacity to reserve for `n` elements of `T` read from untrusted input.
fn prealloc<T>(n: usize) -> usize {
    n.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

/// Declare a struct's checkpointed fields once; generates its [`Wire`]
/// impl, which encodes the fields in the listed order.
///
/// ```
/// # use crisp_ckpt::{wire_struct, Reader, Writer};
/// #[derive(Debug, PartialEq)]
/// struct Usage { threads: u32, warps: u32 }
/// wire_struct!(Usage { threads, warps });
///
/// let mut buf = Vec::new();
/// Writer::new(&mut buf).put(&Usage { threads: 64, warps: 2 }).unwrap();
/// let back: Usage = Reader::new(buf.as_slice()).get().unwrap();
/// assert_eq!(back, Usage { threads: 64, warps: 2 });
/// ```
///
/// A trailing `check = path` names a `fn(&Self) -> io::Result<()>` that
/// validates the decoded value before `get` returns it.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? } $(check = $check:path)?) => {
        impl $crate::Wire for $ty {
            fn put<W: ::std::io::Write>(
                &self,
                w: &mut $crate::Writer<W>,
            ) -> ::std::io::Result<()> {
                $(w.put(&self.$field)?;)*
                Ok(())
            }

            fn get<R: ::std::io::Read>(r: &mut $crate::Reader<R>) -> ::std::io::Result<Self> {
                let v = $ty { $($field: r.get()?,)* };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                w.inner.write_all(&self.to_le_bytes())
            }

            fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_le!(u8, u16, u32);

impl Wire for u64 {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        write_varint(&mut w.inner, *self)
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        read_varint(&mut r.inner)
    }
}

/// Same encoding as `u64`; a value that does not fit the host is an error.
impl Wire for usize {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&(*self as u64))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let v: u64 = r.get()?;
        usize::try_from(v).map_err(|_| bad(format!("value {v} overflows usize")))
    }
}

impl Wire for i64 {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&zigzag(*self))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(unzigzag(r.get()?))
    }
}

/// Bit-exact: the IEEE-754 bit pattern, little-endian.
impl Wire for f64 {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.inner.write_all(&self.to_bits().to_le_bytes())
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(f64::from_bits(u64::from_le_bytes(r.array()?)))
    }
}

/// Two varint halves, low first (scoreboard masks).
impl Wire for u128 {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&(*self as u64))?;
        w.put(&((*self >> 64) as u64))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let lo: u64 = r.get()?;
        let hi: u64 = r.get()?;
        Ok((lo as u128) | ((hi as u128) << 64))
    }
}

/// One byte; anything other than 0/1 is corruption.
impl Wire for bool {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&(*self as u8))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("bad bool byte {b}"))),
        }
    }
}

/// Length-prefixed UTF-8, capped at 1 MiB (the `CRSP` string encoding).
impl Wire for String {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        write_string(&mut w.inner, self)
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        read_string(&mut r.inner)
    }
}

macro_rules! wire_newtype {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                w.put(&self.0)
            }

            fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
                Ok($ty(r.get()?))
            }
        }
    )+};
}
wire_newtype!(StreamId, KernelId, Reg);

/// Implement [`Wire`] for fieldless enums as one tag byte each; any other
/// byte decodes to `InvalidData`.
///
/// ```
/// # use crisp_ckpt::{wire_tags, Reader, Writer};
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Exact }
/// wire_tags! { Mode { Fast = 0u8, Exact = 1u8 } }
///
/// let mut buf = Vec::new();
/// Writer::new(&mut buf).put(&Mode::Exact).unwrap();
/// assert_eq!(buf, [1]);
/// assert_eq!(Reader::new(buf.as_slice()).get::<Mode>().unwrap(), Mode::Exact);
/// assert!(Reader::new([2u8].as_slice()).get::<Mode>().is_err());
/// ```
#[macro_export]
macro_rules! wire_tags {
    ($($ty:ident { $($variant:ident = $tag:literal),+ })+) => {$(
        impl $crate::Wire for $ty {
            fn put<W: ::std::io::Write>(
                &self,
                w: &mut $crate::Writer<W>,
            ) -> ::std::io::Result<()> {
                w.put(&match self {
                    $($ty::$variant => $tag,)+
                })
            }

            fn get<R: ::std::io::Read>(r: &mut $crate::Reader<R>) -> ::std::io::Result<Self> {
                match r.get::<u8>()? {
                    $($tag => Ok($ty::$variant),)+
                    t => Err($crate::bad(format!(concat!("bad ", stringify!($ty), " tag {}"), t))),
                }
            }
        }
    )+};
}
wire_tags! {
    DataClass { Texture = 0u8, Pipeline = 1u8, Compute = 2u8 }
    Space { Global = 0u8, Shared = 1u8, Local = 2u8, Tex = 3u8 }
    StreamKind { Graphics = 0u8, Compute = 1u8 }
}

wire_struct!(TraceStats {
    resident_ctas,
    resident_bytes,
    peak_resident_ctas,
    peak_resident_bytes,
    ctas_decoded,
    bytes_decoded
});

impl Wire for Track {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match *self {
            Track::Gpu => w.put(&0u8),
            Track::Stream(s) => w.put(&(1u8, s)),
            Track::Sm(s) => w.put(&(2u8, s)),
        }
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(match r.get::<u8>()? {
            0 => Track::Gpu,
            1 => Track::Stream(r.get()?),
            2 => Track::Sm(r.get()?),
            t => return Err(bad(format!("unknown track tag {t}"))),
        })
    }
}

/// Span categories form a closed set (the recorder only emits these), which
/// lets restore rebuild the `&'static str` tags: a category is written as
/// its index here.
const SPAN_CATS: [&str; 3] = ["cta", "kernel", "marker"];

fn cat_tag(cat: &str) -> io::Result<u8> {
    let i = SPAN_CATS.iter().position(|&c| c == cat);
    i.map(|i| i as u8)
        .ok_or_else(|| bad(format!("unknown span category {cat:?}")))
}

fn cat_from(tag: u8) -> io::Result<&'static str> {
    let cat = SPAN_CATS.get(tag as usize).copied();
    cat.ok_or_else(|| bad(format!("unknown span-category tag {tag}")))
}

impl Wire for SpanEvent {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.track)?;
        w.put(&self.name)?;
        w.put(&cat_tag(self.cat)?)?;
        w.put(&(self.start, self.dur))?;
        w.put(&self.args)
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(SpanEvent {
            track: r.get()?,
            name: r.get()?,
            cat: cat_from(r.get()?)?,
            start: r.get()?,
            dur: r.get()?,
            args: r.get()?,
        })
    }
}

impl Wire for InstantEvent {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.track)?;
        w.put(&self.name)?;
        w.put(&cat_tag(self.cat)?)?;
        w.put(&self.at)
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(InstantEvent {
            track: r.get()?,
            name: r.get()?,
            cat: cat_from(r.get()?)?,
            at: r.get()?,
        })
    }
}

wire_struct!(CounterSample { cycle, name, value });

/// The recording flags, the log with its per-SM span buffers kept apart,
/// and the open CTA spans. Restore checks the buffer count and the open
/// spans against the configuration, which the checkpoint stores elsewhere.
impl Wire for TraceRecorder {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&(self.records_spans(), self.records_counters()))?;
        let log = self.log();
        w.seq(log.driver_spans(), |w, s| w.put(s))?;
        w.seq(log.sm_span_buffers(), |w, buf| w.put(buf))?;
        w.seq(log.instants(), |w, i| w.put(i))?;
        w.seq(log.counters(), |w, c| w.put(c))?;
        w.put(&self.open_cta_entries())
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let (record_spans, record_counters) = r.get()?;
        let spans = r.get()?;
        let sm_spans = r.get()?;
        let instants = r.get()?;
        let counters = r.get()?;
        let log = TraceLog::from_parts(spans, sm_spans, instants, counters);
        Ok(TraceRecorder::from_parts(
            log,
            r.get()?,
            record_spans,
            record_counters,
        ))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.option(self.as_ref(), |w, v| w.put(v))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        r.option(|r| r.get())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.seq(self, |w, v| w.put(v))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        r.seq(|r| r.get())
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.seq(self, |w, v| w.put(v))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(r.seq(|r| r.get())?.into())
    }
}

/// Fixed-size arrays carry no length prefix.
impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        self.iter().try_for_each(|v| w.put(v))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let v = (0..N).map(|_| r.get()).collect::<io::Result<Vec<T>>>()?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("read exactly N")))
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[allow(non_snake_case)]
            fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                let ($($name,)+) = self;
                $(w.put($name)?;)+
                Ok(())
            }

            fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
                Ok(($(r.get::<$name>()?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);
wire_tuple!(A, B, C, D, E);

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.seq(self, |w, (k, v)| {
            w.put(k)?;
            w.put(v)
        })
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(r.seq(|r| r.get::<(K, V)>())?.into_iter().collect())
    }
}

/// Written with sorted keys, so the bytes depend on neither the hasher
/// nor hash order.
impl<K: Wire + Ord + Hash, V: Wire, S: BuildHasher + Default> Wire for HashMap<K, V, S> {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.seq(entries, |w, (k, v)| {
            w.put(k)?;
            w.put(v)
        })
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(r.seq(|r| r.get::<(K, V)>())?.into_iter().collect())
    }
}

/// A min-heap, written as its elements in ascending order.
impl<T: Wire + Ord + Clone> Wire for BinaryHeap<Reverse<T>> {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        let mut items: Vec<&T> = self.iter().map(|Reverse(v)| v).collect();
        items.sort_unstable();
        w.seq(items, |w, v| w.put(v))
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(r.seq(|r| r.get::<T>())?.into_iter().map(Reverse).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire>(v: &T) -> T {
        let mut buf = Vec::new();
        Writer::new(&mut buf).put(v).unwrap();
        let mut r = Reader::new(buf.as_slice());
        let back = r.get().unwrap();
        assert!(r.get::<u8>().is_err(), "every byte consumed");
        back
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(roundtrip(&7u8), 7);
        assert_eq!(roundtrip(&0xBEEFu16), 0xBEEF);
        assert_eq!(roundtrip(&0xDEAD_BEEFu32), 0xDEAD_BEEF);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&usize::MAX), usize::MAX);
        assert_eq!(roundtrip(&-42i64), -42);
        assert_eq!(
            roundtrip(&(0.1f64 + 0.2)).to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(roundtrip(&(1u128 << 99 | 3)), 1u128 << 99 | 3);
        assert!(roundtrip(&true));
        assert_eq!(roundtrip(&"hello".to_string()), "hello");
        assert_eq!(roundtrip(&Some(5u64)), Some(5));
        assert_eq!(roundtrip(&None::<u64>), None);
        assert_eq!(roundtrip(&KernelId(9)), KernelId(9));
        assert_eq!(
            roundtrip(&(StreamId(2), DataClass::Pipeline, Space::Tex)),
            (StreamId(2), DataClass::Pipeline, Space::Tex)
        );
    }

    #[test]
    fn encodings_are_the_documented_ones() {
        let enc = |f: &dyn Fn(&mut Writer<&mut Vec<u8>>) -> io::Result<()>| {
            let mut buf = Vec::new();
            f(&mut Writer::new(&mut buf)).unwrap();
            buf
        };
        assert_eq!(enc(&|w| w.put(&0x0102u16)), [2, 1]);
        assert_eq!(enc(&|w| w.put(&300u64)), [0xAC, 0x02]);
        assert_eq!(enc(&|w| w.put(&-1i64)), [1]);
        assert_eq!(
            enc(&|w| w.put(&[1u8, 2, 3])),
            [1, 2, 3],
            "arrays: no prefix"
        );
        assert_eq!(enc(&|w| w.put(&vec![7u8])), [1, 7]);
        let mut h = HashMap::new();
        h.insert(3u8, 30u8);
        h.insert(1u8, 10u8);
        assert_eq!(enc(&|w| w.put(&h)), [2, 1, 10, 3, 30], "sorted keys");
        let heap: BinaryHeap<Reverse<u8>> = [5u8, 1, 3].into_iter().map(Reverse).collect();
        assert_eq!(enc(&|w| w.put(&heap)), [3, 1, 3, 5], "ascending");
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![(1u64, StreamId(3)), (2, StreamId(4))];
        assert_eq!(roundtrip(&v), v);
        let d: VecDeque<u32> = [1, 2, 3].into_iter().collect();
        assert_eq!(roundtrip(&d), d);
        let m: BTreeMap<StreamId, u64> = [(StreamId(1), 5), (StreamId(0), 9)].into();
        assert_eq!(roundtrip(&m), m);
        let h: HashMap<u32, Vec<bool>> = [(4, vec![true]), (2, vec![])].into();
        assert_eq!(roundtrip(&h), h);
        let heap: BinaryHeap<Reverse<(u64, u32)>> =
            [(9, 1), (2, 2)].into_iter().map(Reverse).collect();
        assert_eq!(roundtrip(&heap).into_sorted_vec(), heap.into_sorted_vec());
        assert_eq!(roundtrip(&[3u64, 4]), [3, 4]);
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u32,
        b: Vec<u64>,
    }

    fn nonempty(p: &Pair) -> io::Result<()> {
        if p.b.is_empty() {
            return Err(bad("empty"));
        }
        Ok(())
    }

    wire_struct!(Pair { b, a } check = nonempty);

    #[test]
    fn wire_struct_uses_list_order_and_check() {
        let p = Pair { a: 1, b: vec![2] };
        let mut buf = Vec::new();
        Writer::new(&mut buf).put(&p).unwrap();
        assert_eq!(buf, [1, 2, 1, 0, 0, 0]);
        assert_eq!(roundtrip(&p), p);
        let mut buf = Vec::new();
        Writer::new(&mut buf)
            .put(&Pair { a: 1, b: vec![] })
            .unwrap();
        assert!(Reader::new(buf.as_slice()).get::<Pair>().is_err());
    }

    #[test]
    fn header_rejects_foreign_magic_with_both_names() {
        let mut buf = b"CRSP".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = Reader::new(buf.as_slice())
            .header()
            .unwrap_err()
            .to_string();
        assert!(err.contains("CRSP") && err.contains("CKPT"), "{err}");
    }

    #[test]
    fn header_rejects_future_version() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = Reader::new(buf.as_slice())
            .header()
            .unwrap_err()
            .to_string();
        assert!(err.contains("found 99"), "{err}");
    }

    #[test]
    fn len_cap_blocks_oversized_allocations() {
        let mut buf = Vec::new();
        write_varint(&mut buf, MAX_LEN as u64 + 1).unwrap();
        assert!(Reader::new(buf.as_slice()).get::<Vec<u64>>().is_err());
        // Within the cap but truncated: fails at EOF without reserving it.
        let mut buf = Vec::new();
        write_varint(&mut buf, MAX_LEN as u64).unwrap();
        assert!(Reader::new(buf.as_slice()).get::<Vec<u64>>().is_err());
    }

    #[test]
    fn bad_bool_and_option_tags_error() {
        assert!(Reader::new([2u8].as_slice()).get::<bool>().is_err());
        assert!(Reader::new([9u8].as_slice()).get::<Option<u8>>().is_err());
        assert!(Reader::new([7u8].as_slice()).get::<DataClass>().is_err());
        assert!(Reader::new([4u8].as_slice()).get::<Space>().is_err());
    }

    #[test]
    fn bytes_roundtrip_and_cap() {
        let blob: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        Writer::new(&mut buf).bytes(&blob).unwrap();
        assert_eq!(Reader::new(buf.as_slice()).bytes(blob.len()).unwrap(), blob);
        assert!(Reader::new(buf.as_slice()).bytes(blob.len() - 1).is_err());
    }

    #[test]
    fn truncated_bytes_blob_errors_instead_of_allocating() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 40).unwrap(); // huge claimed length, no payload
        assert!(Reader::new(buf.as_slice()).bytes(usize::MAX).is_err());
    }
}
