//! Point-cloud file I/O: ASCII PLY and XYZ.
//!
//! The experiments run entirely on synthetic generators, but a library a
//! downstream user would adopt must read their scans and write its outputs.
//! Two interchange formats are supported:
//!
//! * **XYZ** — one `x y z [label]` line per point, whitespace separated,
//!   `#` comments;
//! * **PLY** (ASCII) — the subset real scanners emit: a `vertex` element
//!   with `x`/`y`/`z` float properties and an optional integer label-like
//!   property (`label`, `class`, or `scalar_*`).

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
/// ignored. Labels must appear on every line or none.
///
/// # Errors
///
/// Returns [`ReadCloudError`] on I/O failure, malformed coordinates, or
/// inconsistent label columns.
pub fn read_xyz<R: Read>(reader: R) -> Result<PointCloud, ReadCloudError> {
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

/// Reads an ASCII PLY file's vertex element.
///
/// Supports `float`/`double` `x`, `y`, `z` properties in any order plus an
/// optional integer label property named `label` or `class`. Other vertex
/// properties (colors, normals) are skipped; other elements (faces) are
/// ignored.
///
/// # Errors
///
/// Returns [`ReadCloudError`] when the header or vertex rows are malformed
/// or the format is binary (unsupported).
pub fn read_ply<R: Read>(reader: R) -> Result<PointCloud, ReadCloudError> {
    let mut lines = BufReader::new(reader).lines().enumerate();
    let mut next_line = |expect: &str| -> Result<(usize, String), ReadCloudError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(parse_err(i + 1, format!("{e}"))),
            None => Err(parse_err(0, format!("unexpected end of file, expected {expect}"))),
        }
    };

    let (n, magic) = next_line("'ply'")?;
    if magic.trim() != "ply" {
        return Err(parse_err(n, "missing 'ply' magic"));
    }

    let mut vertex_count: Option<usize> = None;
    let mut in_vertex_element = false;
    // (property index → role): 0 = x, 1 = y, 2 = z, 3 = label.
    let mut columns: Vec<Option<usize>> = Vec::new();
    loop {
        let (n, line) = next_line("'end_header'")?;
        let line = line.trim().to_owned();
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["end_header"] => break,
            ["format", kind, _version] => {
                if *kind != "ascii" {
                    return Err(parse_err(n, format!("unsupported PLY format '{kind}'")));
                }
            }
            ["comment", ..] | ["obj_info", ..] => {}
            ["element", "vertex", count] => {
                vertex_count = Some(
                    count
                        .parse()
                        .map_err(|_| parse_err(n, format!("bad vertex count '{count}'")))?,
                );
                in_vertex_element = true;
            }
            ["element", ..] => in_vertex_element = false,
            ["property", _ty, name] if in_vertex_element => {
                let role = match *name {
                    "x" => Some(0),
                    "y" => Some(1),
                    "z" => Some(2),
                    "label" | "class" => Some(3),
                    other if other.starts_with("scalar_") => Some(3),
                    _ => None,
                };
                columns.push(role);
            }
            ["property", ..] => {}
            [] => {}
            _ => return Err(parse_err(n, format!("unrecognized header line '{line}'"))),
        }
    }
    let vertex_count = vertex_count.ok_or_else(|| parse_err(0, "header has no vertex element"))?;
    for (role, name) in [(0usize, "x"), (1, "y"), (2, "z")] {
        if !columns.contains(&Some(role)) {
            return Err(parse_err(0, format!("vertex element lacks property '{name}'")));
        }
    }
    let has_label = columns.contains(&Some(3));

    // Grown as rows arrive: the header's count is untrusted, and a file
    // declaring more rows than it holds ends in an error, not an allocation.
    let mut cloud = PointCloud::new();
    let mut labelled = PointCloud::new();
    for _ in 0..vertex_count {
        let (n, line) = next_line("a vertex row")?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < columns.len() {
            return Err(parse_err(
                n,
                format!(
                    "vertex row has {} fields, header declares {}",
                    fields.len(),
                    columns.len()
                ),
            ));
        }
        let mut coords = [0.0f32; 3];
        let mut label = 0u32;
        for (value, role) in fields.iter().zip(&columns) {
            match role {
                Some(r @ 0..=2) => coords[*r] = parse_coord(n, value)?,
                Some(_) => {
                    label = value
                        .parse::<f64>()
                        .map_err(|_| parse_err(n, format!("bad label '{value}'")))?
                        as u32;
                }
                None => {}
            }
        }
        let p = Point3::new(coords[0], coords[1], coords[2]);
        if has_label {
            labelled.push_labelled(p, label);
        } else {
            cloud.push(p);
        }
    }
    Ok(if has_label { labelled } else { cloud })
}

/// Writes a cloud as ASCII PLY (with a `label` property when present).
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_ply<W: Write>(cloud: &PointCloud, mut writer: W) -> io::Result<()> {
    writeln!(writer, "ply")?;
    writeln!(writer, "format ascii 1.0")?;
    writeln!(writer, "comment generated by mesorasi-pointcloud")?;
    writeln!(writer, "element vertex {}", cloud.len())?;
    writeln!(writer, "property float x")?;
    writeln!(writer, "property float y")?;
    writeln!(writer, "property float z")?;
    if cloud.labels().is_some() {
        writeln!(writer, "property uint label")?;
    }
    writeln!(writer, "end_header")?;
    write_xyz(cloud, writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{sample_shape, ShapeClass};

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

    #[test]
    fn ply_round_trip_labelled() {
        let cloud = crate::parts::sample_labelled(crate::parts::categories()[1], 32, 3);
        let mut buf = Vec::new();
        write_ply(&cloud, &mut buf).unwrap();
        let back = read_ply(&buf[..]).unwrap();
        assert_eq!(back.len(), 32);
        assert_eq!(back.labels(), cloud.labels());
    }

    #[test]
    fn ply_parses_extra_properties_and_any_order() {
        let text = "ply\nformat ascii 1.0\nelement vertex 2\n\
                    property float z\nproperty float x\nproperty uchar red\n\
                    property float y\nend_header\n\
                    3 1 255 2\n6 4 0 5\n";
        let cloud = read_ply(text.as_bytes()).unwrap();
        assert_eq!(cloud.point(0), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(cloud.point(1), Point3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn ply_rejects_binary_and_missing_coords() {
        let binary = "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n";
        assert!(read_ply(binary.as_bytes()).is_err());
        let no_z = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property float x\nproperty float y\nend_header\n1 2\n";
        assert!(read_ply(no_z.as_bytes()).is_err());
    }

    #[test]
    fn ply_truncated_body_reports_error() {
        let text = "ply\nformat ascii 1.0\nelement vertex 3\n\
                    property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n";
        assert!(read_ply(text.as_bytes()).is_err());
    }

    #[test]
    fn ply_huge_vertex_counts_report_truncation_without_allocating() {
        for count in ["100000000000", "18446744073709551615"] {
            let text = format!(
                "ply\nformat ascii 1.0\nelement vertex {count}\n\
                 property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n"
            );
            assert!(read_ply(text.as_bytes()).is_err(), "count {count}");
        }
    }

    #[test]
    fn ply_rejects_non_finite_coordinates() {
        for row in ["nan 2 3", "1 inf 3"] {
            let text = format!(
                "ply\nformat ascii 1.0\nelement vertex 1\n\
                 property float x\nproperty float y\nproperty float z\nend_header\n{row}\n"
            );
            assert!(
                matches!(read_ply(text.as_bytes()), Err(ReadCloudError::Parse { line: 8, .. })),
                "row '{row}'"
            );
        }
    }
}
