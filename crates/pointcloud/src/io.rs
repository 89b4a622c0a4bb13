//! Point-cloud file I/O: XYZ.
//!
//! The experiments run entirely on synthetic generators, but a library a
//! downstream user would adopt must read their scans and write its outputs.
//! The interchange format is **XYZ**: one `x y z [label]` line per point,
//! whitespace separated, `#` comments.

use crate::{Point3, PointCloud};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Errors produced by the readers.
#[derive(Debug)]
pub enum ReadCloudError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file violates the format; the message says where and why.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ReadCloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadCloudError::Io(e) => write!(f, "i/o error: {e}"),
            ReadCloudError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ReadCloudError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadCloudError::Io(e) => Some(e),
            ReadCloudError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for ReadCloudError {
    fn from(e: io::Error) -> Self {
        ReadCloudError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> ReadCloudError {
    ReadCloudError::Parse { line, message: message.into() }
}

/// One coordinate field of line `line_no`: a finite `f32`.
fn parse_coord(line_no: usize, s: &str) -> Result<f32, ReadCloudError> {
    let v: f32 = s.parse().map_err(|_| parse_err(line_no, format!("bad coordinate '{s}'")))?;
    if !v.is_finite() {
        return Err(parse_err(line_no, format!("non-finite coordinate '{s}'")));
    }
    Ok(v)
}

/// Reads an XYZ file: `x y z [label]` per line, `#` comments, blank lines
/// ignored. Labels must appear on every line or none. Lines end in `\n` or
/// `\r\n`. One line buffer serves the whole file, and a line's fields are
/// read in place, so the points and labels are the only growing storage.
///
/// # Errors
///
/// Returns [`ReadCloudError`] on I/O failure (invalid UTF-8 included),
/// malformed coordinates, or inconsistent label columns.
pub fn read_xyz<R: Read>(reader: R) -> Result<PointCloud, ReadCloudError> {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut points = Vec::new();
    let mut labels: Vec<u32> = Vec::new();
    let mut has_labels: Option<bool> = None;
    for line_no in 1.. {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let text = line.strip_suffix('\n').unwrap_or(&line);
        let text = text.strip_suffix('\r').unwrap_or(text);
        let content = text.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut fields = [""; 4];
        let mut count = 0;
        for field in content.split_whitespace() {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field;
            }
            count += 1;
        }
        if count != 3 && count != 4 {
            return Err(parse_err(line_no, format!("expected 3 or 4 fields, got {count}")));
        }
        let coord = |s| parse_coord(line_no, s);
        points.push(Point3::new(coord(fields[0])?, coord(fields[1])?, coord(fields[2])?));
        let labelled = count == 4;
        match has_labels {
            None => has_labels = Some(labelled),
            Some(expected) if expected != labelled => {
                return Err(parse_err(line_no, "inconsistent label column"));
            }
            _ => {}
        }
        if labelled {
            labels.push(
                fields[3]
                    .parse()
                    .map_err(|_| parse_err(line_no, format!("bad label '{}'", fields[3])))?,
            );
        }
    }
    Ok(if has_labels == Some(true) {
        PointCloud::from_labelled_points(points, labels)
    } else {
        PointCloud::from_points(points)
    })
}

/// Writes a cloud in XYZ format (labels appended when present).
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_xyz<W: Write>(cloud: &PointCloud, mut writer: W) -> io::Result<()> {
    match cloud.labels() {
        Some(labels) => {
            for (p, l) in cloud.points().iter().zip(labels) {
                writeln!(writer, "{} {} {} {}", p.x, p.y, p.z, l)?;
            }
        }
        None => {
            for p in cloud.points() {
                writeln!(writer, "{} {} {}", p.x, p.y, p.z)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{sample_shape, ShapeClass};
    use proptest::prelude::*;

    /// The reader as it was before it reused its line buffer: a `String`
    /// per line from `BufRead::lines` and a `Vec` of its fields. Kept as
    /// the oracle the current reader must equal.
    fn read_xyz_per_line_allocating<R: Read>(reader: R) -> Result<PointCloud, ReadCloudError> {
        let mut points = Vec::new();
        let mut labels: Vec<u32> = Vec::new();
        let mut has_labels: Option<bool> = None;
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            let line_no = idx + 1;
            let line = line?;
            let content = line.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            if fields.len() != 3 && fields.len() != 4 {
                return Err(parse_err(
                    line_no,
                    format!("expected 3 or 4 fields, got {}", fields.len()),
                ));
            }
            let coord = |s| parse_coord(line_no, s);
            points.push(Point3::new(coord(fields[0])?, coord(fields[1])?, coord(fields[2])?));
            let labelled = fields.len() == 4;
            match has_labels {
                None => has_labels = Some(labelled),
                Some(expected) if expected != labelled => {
                    return Err(parse_err(line_no, "inconsistent label column"));
                }
                _ => {}
            }
            if labelled {
                labels.push(
                    fields[3]
                        .parse()
                        .map_err(|_| parse_err(line_no, format!("bad label '{}'", fields[3])))?,
                );
            }
        }
        Ok(if has_labels == Some(true) {
            PointCloud::from_labelled_points(points, labels)
        } else {
            PointCloud::from_points(points)
        })
    }

    /// Everything a read says: point bits and labels, or the error.
    fn outcome(
        read: Result<PointCloud, ReadCloudError>,
    ) -> Result<(Vec<[u32; 3]>, Vec<u32>), String> {
        let cloud = read.map_err(|e| format!("{e:?}"))?;
        let bits = cloud.points().iter().map(|p| [p.x, p.y, p.z].map(f32::to_bits)).collect();
        Ok((bits, cloud.labels().map(<[u32]>::to_vec).unwrap_or_default()))
    }

    /// Fragments the generated files are made of: numbers of every form,
    /// labels, separators, comments, both line ends, a lone `\r`, words,
    /// non-finite values and bytes that are not UTF-8.
    const TOKENS: [&[u8]; 24] = [
        b"1",
        b"-2.5",
        b"3e2",
        b"0.1",
        b"+7",
        b"1e40",
        b"nan",
        b"inf",
        b"x",
        b"4294967296",
        b"12",
        b" ",
        b" ",
        b"\t",
        b"  ",
        b"\n",
        b"\n",
        b"\r\n",
        b"\r",
        b"#",
        b"# note",
        b"\xff",
        b"\xc3\xa9",
        b"",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn read_xyz_equals_the_per_line_allocating_reader(
            picks in prop::collection::vec(0..TOKENS.len(), 0..48),
        ) {
            let bytes: Vec<u8> = picks.iter().flat_map(|&i| TOKENS[i].iter().copied()).collect();
            let got = outcome(read_xyz(&bytes[..]));
            let want = outcome(read_xyz_per_line_allocating(&bytes[..]));
            prop_assert_eq!(got, want, "input {:?}", String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn read_xyz_equals_the_oracle_on_well_formed_files(
            rows in prop::collection::vec((0..TOKENS.len(), 0..3usize, -1.0e6f32..1.0e6), 1..32),
        ) {
            // Mostly valid lines: three coordinates, then an ending token.
            let mut bytes = Vec::new();
            for &(end, spaces, v) in &rows {
                let gap = " ".repeat(spaces + 1);
                bytes.extend(format!("{v}{gap}{}{gap}{v:e}", -v).bytes());
                bytes.extend_from_slice(TOKENS[end]);
                bytes.push(b'\n');
            }
            let got = outcome(read_xyz(&bytes[..]));
            let want = outcome(read_xyz_per_line_allocating(&bytes[..]));
            prop_assert_eq!(got, want, "input {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn xyz_round_trip_unlabelled() {
        let cloud = sample_shape(ShapeClass::Chair, 64, 1);
        let mut buf = Vec::new();
        write_xyz(&cloud, &mut buf).unwrap();
        let back = read_xyz(&buf[..]).unwrap();
        assert_eq!(back.len(), 64);
        for (a, b) in cloud.iter().zip(back.iter()) {
            assert!(a.distance(*b) < 1e-5);
        }
        assert!(back.labels().is_none());
    }

    #[test]
    fn xyz_round_trip_labelled() {
        let cloud = crate::parts::sample_labelled(crate::parts::categories()[0], 48, 2);
        let mut buf = Vec::new();
        write_xyz(&cloud, &mut buf).unwrap();
        let back = read_xyz(&buf[..]).unwrap();
        assert_eq!(back.labels(), cloud.labels());
    }

    #[test]
    fn xyz_ignores_comments_and_blanks() {
        let text = "# header\n\n1 2 3\n 4 5 6 # trailing\n";
        let cloud = read_xyz(text.as_bytes()).unwrap();
        assert_eq!(cloud.len(), 2);
        assert_eq!(cloud.point(1), Point3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn xyz_rejects_bad_rows() {
        assert!(matches!(read_xyz("1 2\n".as_bytes()), Err(ReadCloudError::Parse { line: 1, .. })));
        assert!(matches!(
            read_xyz("1 2 zebra\n".as_bytes()),
            Err(ReadCloudError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_xyz("1 2 3\n4 5 6 7\n".as_bytes()),
            Err(ReadCloudError::Parse { line: 2, .. })
        ));
        assert!(read_xyz("1 2 inf\n".as_bytes()).is_err());
    }
}
