//! The hardware-independent move request (`struct mov_req` in the paper).

/// Number of 64-bit words a [`MovReq`] occupies inside a slot.
pub const PAYLOAD_WORDS: usize = 8;

/// Type of memory move (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MoveKind {
    /// `memcpy()` semantics between two already-mapped virtual regions.
    /// Incurs the lowest OS cost: no virtual-memory management and
    /// indifference to CPU/DMA races.
    #[default]
    Replicate,
    /// NUMA-page-migration semantics: replace the backing pages of one
    /// virtual region with pages freshly allocated on the destination
    /// node, then fill them from the old pages.
    Migrate,
}

impl MoveKind {
    fn code(self) -> u64 {
        match self {
            MoveKind::Replicate => 0,
            MoveKind::Migrate => 1,
        }
    }

    fn from_code(code: u64) -> Self {
        if code == 1 {
            MoveKind::Migrate
        } else {
            MoveKind::Replicate
        }
    }
}

/// Why a request entered the [`MoveStatus::Failed`] terminal state.
///
/// Failures in this class originate in the *hardware path* — a DMA
/// transfer that timed out, errored mid-flight, or could never obtain
/// descriptors — after the driver exhausted its retry budget and the
/// CPU-copy fallback was disabled. They are distinct from validation
/// rejections ([`MoveStatus::Invalid`]) and race outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailReason {
    /// The per-request watchdog expired: no completion (and no error)
    /// arrived within the expected transfer time plus margin.
    Timeout,
    /// The DMA engine reported an error partway through the transfer.
    DmaError,
    /// The PaRAM descriptor pool stayed exhausted across every retry.
    Descriptors,
}

/// Completion status of a move request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MoveStatus {
    /// Not yet processed.
    #[default]
    Pending,
    /// Completed successfully.
    Done,
    /// A CPU/DMA race was detected during migration; under the default
    /// *proceed-and-fail* policy the application receives the equivalent
    /// of a SEGFAULT notification (§5.2).
    Raced,
    /// The migration was aborted and the original mapping restored
    /// (*proceed-and-recover* mode, §5.2).
    Aborted,
    /// The request was rejected: bad address range, unmapped pages,
    /// invalid destination node, or a slot-index validation failure.
    Invalid,
    /// The destination node ran out of free pages mid-request.
    OutOfMemory,
    /// The hardware path failed terminally: retries were exhausted and
    /// no CPU-copy fallback absorbed the request. The original mapping
    /// has been restored (migrations roll back like an abort).
    Failed(FailReason),
}

impl MoveStatus {
    /// The status's slot code, 0 ([`MoveStatus::Pending`]) to 8: one
    /// value for each status and each [`FailReason`]. Requests carry it
    /// in their queue slot, and the driver's completion log in its tag
    /// byte.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            MoveStatus::Pending => 0,
            MoveStatus::Done => 1,
            MoveStatus::Raced => 2,
            MoveStatus::Aborted => 3,
            MoveStatus::Invalid => 4,
            MoveStatus::OutOfMemory => 5,
            MoveStatus::Failed(FailReason::Timeout) => 6,
            MoveStatus::Failed(FailReason::DmaError) => 7,
            MoveStatus::Failed(FailReason::Descriptors) => 8,
        }
    }

    /// Inverse of [`MoveStatus::code`]; a code it never returns reads
    /// as [`MoveStatus::Pending`].
    #[must_use]
    pub fn from_code(code: u64) -> Self {
        match code {
            1 => MoveStatus::Done,
            2 => MoveStatus::Raced,
            3 => MoveStatus::Aborted,
            4 => MoveStatus::Invalid,
            5 => MoveStatus::OutOfMemory,
            6 => MoveStatus::Failed(FailReason::Timeout),
            7 => MoveStatus::Failed(FailReason::DmaError),
            8 => MoveStatus::Failed(FailReason::Descriptors),
            _ => MoveStatus::Pending,
        }
    }

    /// True for every terminal state other than [`MoveStatus::Done`].
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            MoveStatus::Raced
                | MoveStatus::Aborted
                | MoveStatus::Invalid
                | MoveStatus::OutOfMemory
                | MoveStatus::Failed(_)
        )
    }

    /// True for any terminal state (the request will never change again).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        self != MoveStatus::Pending
    }
}

/// A hardware-independent move request, the unit of work submitted to
/// memif (paper Figure 3b).
///
/// The request specifies a virtual memory region consisting of
/// `nr_pages` pages of `page_shift` size starting at `src_base`. For a
/// [`MoveKind::Replicate`] the destination region starts at `dst_base`;
/// for a [`MoveKind::Migrate`] the new backing pages are allocated on
/// `dst_node`.
///
/// Unlike the C prototype — where the application holds a pointer into
/// the shared area for the request's whole lifetime — requests here are
/// plain values copied through the queues. Completions are correlated by
/// `id` (assigned at allocation) or the opaque `user_data` cookie; this is
/// the same correlation model used by production async interfaces such as
/// io_uring and is a documented deviation from the paper's pointer-stable
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MovReq {
    /// Request identifier, unique per memif instance.
    pub id: u64,
    /// Replication or migration.
    pub kind: MoveKind,
    /// Base *virtual* address of the source region (page aligned).
    pub src_base: u64,
    /// Base *virtual* address of the destination region (replication only).
    pub dst_base: u64,
    /// Number of pages covered by the request.
    pub nr_pages: u32,
    /// log2 of the page size in bytes (12 = 4 KiB, 16 = 64 KiB, 21 = 2 MiB).
    pub page_shift: u8,
    /// Destination memory node (migration only).
    pub dst_node: u16,
    /// Completion status, written by the driver before notification.
    pub status: MoveStatus,
    /// Opaque cookie echoed back in the completion.
    pub user_data: u64,
    /// Tenant (client address space / QoS principal) the request is
    /// accounted to. 0 is the root tenant; requests recorded before the
    /// field existed decode as root, keeping old traces valid.
    pub tenant: u16,
}

impl MovReq {
    /// Total bytes covered by the request.
    ///
    /// # Examples
    ///
    /// ```
    /// use memif_lockfree::MovReq;
    /// let req = MovReq { nr_pages: 16, page_shift: 12, ..MovReq::default() };
    /// assert_eq!(req.len_bytes(), 16 * 4096);
    /// ```
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        u64::from(self.nr_pages) << self.page_shift
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_shift
    }

    /// Serializes the request into slot payload words.
    #[must_use]
    pub fn to_words(&self) -> [u64; PAYLOAD_WORDS] {
        [
            self.id,
            self.kind.code(),
            self.src_base,
            self.dst_base,
            (u64::from(self.nr_pages) << 32)
                | (u64::from(self.page_shift) << 16)
                | u64::from(self.dst_node),
            self.status.code(),
            self.user_data,
            u64::from(self.tenant),
        ]
    }

    /// Deserializes a request from slot payload words.
    #[must_use]
    pub fn from_words(words: &[u64; PAYLOAD_WORDS]) -> Self {
        MovReq {
            id: words[0],
            kind: MoveKind::from_code(words[1]),
            src_base: words[2],
            dst_base: words[3],
            nr_pages: (words[4] >> 32) as u32,
            page_shift: ((words[4] >> 16) & 0xFF) as u8,
            dst_node: (words[4] & 0xFFFF) as u16,
            status: MoveStatus::from_code(words[5]),
            user_data: words[6],
            tenant: (words[7] & 0xFFFF) as u16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let req = MovReq {
            id: 0xDEAD_BEEF,
            kind: MoveKind::Migrate,
            src_base: 0x4000_0000,
            dst_base: 0x8000_0000,
            nr_pages: 1234,
            page_shift: 21,
            dst_node: 3,
            status: MoveStatus::Raced,
            user_data: u64::MAX,
            tenant: 42,
        };
        assert_eq!(MovReq::from_words(&req.to_words()), req);
    }

    #[test]
    fn pre_tenant_words_decode_as_root() {
        // Traces recorded before the tenant field existed carry a zero
        // spare word; they must decode as the root tenant.
        let mut words = MovReq::default().to_words();
        words[7] = 0;
        assert_eq!(MovReq::from_words(&words).tenant, 0);
    }

    #[test]
    fn default_roundtrip() {
        let req = MovReq::default();
        assert_eq!(MovReq::from_words(&req.to_words()), req);
        assert_eq!(req.kind, MoveKind::Replicate);
        assert_eq!(req.status, MoveStatus::Pending);
    }

    #[test]
    fn len_bytes_page_sizes() {
        let small = MovReq {
            nr_pages: 16,
            page_shift: 12,
            ..MovReq::default()
        };
        let medium = MovReq {
            nr_pages: 16,
            page_shift: 16,
            ..MovReq::default()
        };
        let large = MovReq {
            nr_pages: 16,
            page_shift: 21,
            ..MovReq::default()
        };
        assert_eq!(small.len_bytes(), 65_536);
        assert_eq!(medium.len_bytes(), 1_048_576);
        assert_eq!(large.len_bytes(), 33_554_432);
        assert_eq!(large.page_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn status_failure_classes() {
        assert!(!MoveStatus::Pending.is_failure());
        assert!(!MoveStatus::Done.is_failure());
        assert!(MoveStatus::Raced.is_failure());
        assert!(MoveStatus::Aborted.is_failure());
        assert!(MoveStatus::Invalid.is_failure());
        assert!(MoveStatus::OutOfMemory.is_failure());
        assert!(MoveStatus::Failed(FailReason::Timeout).is_failure());
        assert!(MoveStatus::Failed(FailReason::DmaError).is_failure());
        assert!(MoveStatus::Failed(FailReason::Descriptors).is_failure());
        assert!(!MoveStatus::Pending.is_terminal());
        assert!(MoveStatus::Done.is_terminal());
        assert!(MoveStatus::Failed(FailReason::Timeout).is_terminal());
    }

    #[test]
    fn failed_status_roundtrips_through_words() {
        for reason in [
            FailReason::Timeout,
            FailReason::DmaError,
            FailReason::Descriptors,
        ] {
            let req = MovReq {
                id: 7,
                status: MoveStatus::Failed(reason),
                ..MovReq::default()
            };
            assert_eq!(MovReq::from_words(&req.to_words()), req);
        }
    }

    #[test]
    fn unknown_codes_decode_conservatively() {
        assert_eq!(MoveKind::from_code(99), MoveKind::Replicate);
        assert_eq!(MoveStatus::from_code(99), MoveStatus::Pending);
    }
}
