//! Bounded line reading, shared by the stdin and TCP transports: no
//! request line is ever buffered past [`MAX_LINE_BYTES`].

use std::io::{self, BufRead, ErrorKind};

/// Longest request line a transport accepts, newline excluded. A longer
/// line is rejected without being buffered whole, so no client can grow
/// a reader's buffer past this: the TCP transport answers it `Failed`
/// and skips it, the stdin transport ends the stream with a parse error.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Read the next `\n`-terminated line into `buf` (newline stripped),
/// keeping at most `limit` bytes. Returns `Ok(None)` at end of stream,
/// `Ok(Some(true))` for a line that fit and `Ok(Some(false))` for a line
/// longer than `limit`, which is consumed through its newline and left
/// out of `buf`.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<Option<bool>> {
    buf.clear();
    let mut fits = true;
    let mut started = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(started.then_some(fits));
        }
        started = true;
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if fits && buf.len() + chunk.len() <= limit {
            buf.extend_from_slice(chunk);
        } else if fits {
            fits = false;
            *buf = Vec::new();
        }
        let used = newline.map_or(chunk.len(), |at| at + 1);
        reader.consume(used);
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn bounded_reader_skips_over_long_lines_and_resynchronizes() {
        // A 1-byte buffer forces every line across many `fill_buf` calls.
        let input: &[u8] = b"abcd\nabcde\n\nxy";
        let mut reader = BufReader::with_capacity(1, input);
        let mut buf = Vec::new();
        let mut next = || {
            let fits = read_bounded_line(&mut reader, &mut buf, 4).unwrap();
            (fits, String::from_utf8(buf.clone()).unwrap())
        };
        assert_eq!(
            next(),
            (Some(true), "abcd".into()),
            "exactly the limit fits"
        );
        assert_eq!(
            next(),
            (Some(false), String::new()),
            "one byte over does not"
        );
        assert_eq!(next(), (Some(true), String::new()));
        assert_eq!(
            next(),
            (Some(true), "xy".into()),
            "last line needs no newline"
        );
        assert_eq!(next(), (None, String::new()));
    }
}
