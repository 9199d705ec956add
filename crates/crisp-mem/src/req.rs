//! Memory requests, tokens and completions.

use crisp_trace::{DataClass, StreamId, LINE_BYTES, SECTOR_BYTES};

/// Sectors per cache line (128 B line / 32 B sector).
pub const SECTORS_PER_LINE: u64 = LINE_BYTES / SECTOR_BYTES;

/// Opaque token the issuer attaches to a request so it can recognise the
/// completion. The memory system never interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqToken {
    /// Issuing SM.
    pub sm: u16,
    /// Issuer-defined identifier (e.g. an in-flight-instruction slot).
    pub id: u64,
}

/// A sector-granular memory request, the unit the hierarchy operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Sector-aligned byte address.
    pub addr: u64,
    /// Whether this is a store.
    pub is_write: bool,
    /// Issuing stream, for partitioning and per-stream stats.
    pub stream: StreamId,
    /// Data classification for composition accounting.
    pub class: DataClass,
    /// Completion token (meaningless for writes, which complete at issue).
    pub token: ReqToken,
}

impl MemReq {
    /// A read of the sector containing `addr`.
    pub fn read(addr: u64, stream: StreamId, class: DataClass, token: ReqToken) -> Self {
        MemReq {
            addr: addr & !(SECTOR_BYTES - 1),
            is_write: false,
            stream,
            class,
            token,
        }
    }

    /// A write to the sector containing `addr`.
    pub fn write(addr: u64, stream: StreamId, class: DataClass, token: ReqToken) -> Self {
        MemReq {
            addr: addr & !(SECTOR_BYTES - 1),
            is_write: true,
            stream,
            class,
            token,
        }
    }

    /// The 128 B line address containing this sector.
    pub fn line_addr(&self) -> u64 {
        self.addr & !(LINE_BYTES - 1)
    }

    /// Sector index within the line (0..4).
    pub fn sector_in_line(&self) -> u64 {
        (self.addr % LINE_BYTES) / SECTOR_BYTES
    }
}

crisp_ckpt::wire_struct!(ReqToken { sm, id });

impl ReqToken {
    /// Reject a restored token that names an SM the configuration lacks:
    /// its completion would be routed to that SM.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `sm >= n_sms`.
    pub fn check_sm(&self, n_sms: usize) -> std::io::Result<()> {
        if self.sm as usize >= n_sms {
            return Err(crisp_ckpt::bad(format!(
                "request token names nonexistent SM {}",
                self.sm
            )));
        }
        Ok(())
    }
}
crisp_ckpt::wire_struct!(MemReq {
    addr,
    is_write,
    stream,
    class,
    token
});

/// A finished read returned by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The token the issuer attached.
    pub token: ReqToken,
    /// Sector address that completed.
    pub addr: u64,
    /// Cycle at which the data is available at the SM.
    pub ready_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOK: ReqToken = ReqToken { sm: 0, id: 0 };

    #[test]
    fn requests_align_to_sectors() {
        let r = MemReq::read(0x1234, StreamId(0), DataClass::Compute, TOK);
        assert_eq!(r.addr % SECTOR_BYTES, 0);
        assert_eq!(r.addr, 0x1220);
    }

    #[test]
    fn line_and_sector_decomposition() {
        let r = MemReq::read(0x1234, StreamId(0), DataClass::Compute, TOK);
        assert_eq!(r.line_addr(), 0x1200);
        assert_eq!(r.sector_in_line(), 1);
        assert!(r.sector_in_line() < SECTORS_PER_LINE);
    }

    #[test]
    fn write_constructor_sets_flag() {
        let w = MemReq::write(0x40, StreamId(1), DataClass::Pipeline, TOK);
        assert!(w.is_write);
        assert_eq!(w.addr, 0x40);
    }
}
