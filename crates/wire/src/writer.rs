//! Append-only encoder producing canonical wire bytes.

use std::io::{self, IoSlice, Write};

/// An append-only byte buffer with helpers for the canonical wire format.
///
/// Integers are little-endian; lengths are LEB128 varints. A `Writer` never
/// fails: all fallibility lives on the decode side.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Create a writer with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// View the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Append a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u128`.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append raw bytes with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A batch of length-delimited frames staged for one vectored write.
///
/// Group-commit write paths stage many frames and emit them with a single
/// syscall instead of one write-plus-flush per frame. Each frame keeps the
/// on-disk layout of [`frame::write_frame_to`](crate::frame::write_frame_to)
/// — `[u32 le length][payload]` — so a reader cannot tell whether a segment
/// was written frame-at-a-time or batch-at-a-time. The batch owns its
/// payloads; length prefixes are materialized at push time so the emit path
/// is pure `IoSlice` assembly with no per-frame encoding work.
#[derive(Debug, Default)]
pub struct FrameBatch {
    prefixes: Vec<[u8; 4]>,
    payloads: Vec<Vec<u8>>,
    bytes: u64,
}

impl FrameBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage one frame, returning its byte offset within the batch.
    ///
    /// Rejects payloads over [`MAX_LEN`](crate::MAX_LEN) before staging
    /// anything, mirroring the single-frame writer: an oversized frame must
    /// never reach the output, where its length prefix would poison every
    /// later read of the stream.
    pub fn push(&mut self, payload: Vec<u8>) -> io::Result<u64> {
        if payload.len() > crate::MAX_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame length {} exceeds maximum {}",
                    payload.len(),
                    crate::MAX_LEN
                ),
            ));
        }
        let offset = self.bytes;
        self.prefixes.push((payload.len() as u32).to_le_bytes());
        self.bytes += (4 + payload.len()) as u64;
        self.payloads.push(payload);
        Ok(offset)
    }

    /// Number of frames staged.
    pub fn frames(&self) -> usize {
        self.payloads.len()
    }

    /// Total encoded size of the staged frames, prefixes included.
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }

    /// True if no frames are staged.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Drop all staged frames without writing them.
    pub fn clear(&mut self) {
        self.prefixes.clear();
        self.payloads.clear();
        self.bytes = 0;
    }

    /// Emit every staged frame with vectored writes and clear the batch.
    ///
    /// Prefix and payload slices are gathered into one `IoSlice` run so the
    /// whole batch reaches the kernel in a single `writev` where the
    /// platform allows (the OS may still split it; short writes resume from
    /// the interrupted slice). On error the batch is left intact but the
    /// sink may hold a torn prefix of it — callers must treat the sink as
    /// needing crash recovery, not retry the emit.
    pub fn write_to<W: Write>(&mut self, out: &mut W) -> io::Result<()> {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.payloads.len() * 2);
        for (prefix, payload) in self.prefixes.iter().zip(&self.payloads) {
            slices.push(IoSlice::new(prefix));
            if !payload.is_empty() {
                slices.push(IoSlice::new(payload));
            }
        }
        let mut idx = 0;
        let mut partial = 0usize;
        while idx < slices.len() {
            if partial > 0 {
                // A short write stopped inside this slice: finish it with a
                // plain write, then resume vectored from the next one.
                out.write_all(&slices[idx][partial..])?;
                partial = 0;
                idx += 1;
                continue;
            }
            let mut n = match out.write_vectored(&slices[idx..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write frame batch",
                    ));
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            while idx < slices.len() && n >= slices[idx].len() {
                n -= slices[idx].len();
                idx += 1;
            }
            partial = n;
        }
        self.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries() {
        let cases: &[(u64, &[u8])] = &[
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ];
        for (v, expect) in cases {
            let mut w = Writer::new();
            w.put_varint(*v);
            assert_eq!(w.as_slice(), *expect, "varint({v})");
        }
    }

    #[test]
    fn integers_are_little_endian() {
        let mut w = Writer::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn with_capacity_and_len() {
        let mut w = Writer::with_capacity(64);
        assert!(w.is_empty());
        w.put_str("abc");
        assert_eq!(w.len(), 4); // 1-byte length + 3 bytes
    }

    #[test]
    fn frame_batch_matches_single_frame_writer() {
        let frames: Vec<Vec<u8>> = vec![b"alpha".to_vec(), Vec::new(), vec![0xAB; 300]];

        let mut batch = FrameBatch::new();
        let mut offsets = Vec::new();
        for f in &frames {
            offsets.push(batch.push(f.clone()).unwrap());
        }
        assert_eq!(batch.frames(), 3);
        assert_eq!(offsets, vec![0, 9, 13]);

        let mut batched = Vec::new();
        batch.write_to(&mut batched).unwrap();
        assert!(batch.is_empty(), "emit clears the batch");
        assert_eq!(batch.byte_len(), 0);

        let mut sequential = Vec::new();
        for f in &frames {
            crate::frame::write_frame_to(&mut sequential, f).unwrap();
        }
        assert_eq!(batched, sequential, "byte-identical to per-frame writes");

        // And the standard frame reader round-trips the batch output.
        let mut cursor = std::io::Cursor::new(batched);
        for f in &frames {
            assert_eq!(
                crate::frame::read_frame_from(&mut cursor)
                    .unwrap()
                    .as_deref(),
                Some(f.as_slice())
            );
        }
        assert_eq!(crate::frame::read_frame_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn frame_batch_rejects_oversized_payload() {
        let mut batch = FrameBatch::new();
        batch.push(vec![0u8; 16]).unwrap();
        let err = batch.push(vec![0u8; crate::MAX_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // The reject staged nothing: the earlier frame is still intact.
        assert_eq!(batch.frames(), 1);
        assert_eq!(batch.byte_len(), 20);
    }

    /// A sink that accepts at most `cap` bytes per call and ignores the
    /// vectored fast path half the time, exercising the short-write resume
    /// logic inside a slice and across slice boundaries.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_batch_survives_short_writes() {
        for cap in [1usize, 3, 7, 64] {
            let frames: Vec<Vec<u8>> = vec![vec![1; 5], vec![2; 17], Vec::new(), vec![3; 2]];
            let mut batch = FrameBatch::new();
            for f in &frames {
                batch.push(f.clone()).unwrap();
            }
            let mut sink = Dribble {
                out: Vec::new(),
                cap,
                calls: 0,
            };
            batch.write_to(&mut sink).unwrap();

            let mut expect = Vec::new();
            for f in &frames {
                crate::frame::write_frame_to(&mut expect, f).unwrap();
            }
            assert_eq!(sink.out, expect, "cap={cap}");
        }
    }

    #[test]
    fn empty_frame_batch_writes_nothing() {
        struct Explode;
        impl std::io::Write for Explode {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                panic!("empty batch must not touch the sink");
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        FrameBatch::new().write_to(&mut Explode).unwrap();
    }
}
