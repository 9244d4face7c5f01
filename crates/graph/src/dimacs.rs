//! Reader / writer for the 9th DIMACS Implementation Challenge `.gr` format.
//!
//! The paper's DIMACS datasets (NY, FLA, W, CTR, USA — Table I) are published
//! in this format. The reproduction runs on synthetic networks by default, but
//! this module lets the real files be dropped in unchanged:
//!
//! ```text
//! c comment lines
//! p sp <num_vertices> <num_arcs>
//! a <from> <to> <weight>      (1-based vertex ids, directed arcs)
//! ```
//!
//! Because our model is undirected (§II), the readers merge the two directed
//! arcs of each road segment into one undirected edge, keeping the minimum
//! weight if they disagree.
//!
//! Two loaders share one tokenizer (the internal `scan_gr` record stream),
//! and both build the CSR [`Graph`] directly:
//!
//! * [`read_gr`] goes through [`GraphBuilder`], so edge ids are file order.
//! * [`load_dimacs_streaming`] skips the builder's hash map: arcs stream
//!   into a compact 12-byte triple buffer that is sorted, deduplicated
//!   (minimum weight wins), and counting-sorted into CSR. At 10M+ arcs this
//!   avoids the hash-based deduplication of the builder path. Edge ids come
//!   out in sorted `(u, v)` order rather than file order.
//!
//! Parse errors always carry the 1-based line number and the offending
//! token; comment and blank lines are accepted anywhere, including before
//! the problem line and between arcs. A problem line may declare at most
//! 2^28 vertices (the bound the snapshot decoder holds a graph section to):
//! both loaders size their arrays from it, and vertex ids must fit a `u32`.

use crate::graph::{Graph, GraphBuilder};
use crate::snapshot::MAX_GRAPH_VERTICES;
use crate::types::{VertexId, Weight};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Errors produced while parsing a DIMACS `.gr` file.
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is syntactically malformed; the string describes the
    /// problem, the 1-based line number, and the offending token.
    Parse(String),
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "I/O error: {e}"),
            DimacsError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for DimacsError {}

impl From<std::io::Error> for DimacsError {
    fn from(e: std::io::Error) -> Self {
        DimacsError::Io(e)
    }
}

/// One syntactic record of a `.gr` file (comments and blank lines are
/// consumed by the scanner and never surfaced).
enum GrRecord {
    /// The `p sp <n> <arcs>` problem line.
    Problem {
        /// Declared vertex count.
        vertices: usize,
        /// Declared directed-arc count (advisory; mismatches are tolerated).
        arcs: usize,
    },
    /// One `a <tail> <head> <weight>` line, ids still 1-based but already
    /// validated against the declared vertex count.
    Arc {
        /// 1-based tail id.
        tail: usize,
        /// 1-based head id.
        head: usize,
        /// Arc weight as written.
        weight: Weight,
    },
}

/// Drives the shared `.gr` tokenizer, feeding each record to `sink`.
///
/// Guarantees on the record stream: exactly one `Problem` record, emitted
/// before any `Arc`, declaring at most `MAX_GRAPH_VERTICES`; arc ids are
/// 1-based, nonzero, and within the declared vertex count. Everything else
/// is a [`DimacsError::Parse`] that names the line and the offending token.
fn scan_gr<R: BufRead>(
    reader: R,
    mut sink: impl FnMut(GrRecord) -> Result<(), DimacsError>,
) -> Result<(), DimacsError> {
    let mut vertices: Option<usize> = None;
    let mut lines = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        let lineno = lineno + 1;
        lines = lineno;
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("c") => continue,
            Some("p") => {
                if vertices.is_some() {
                    return Err(DimacsError::Parse(format!(
                        "line {lineno}: duplicate problem line"
                    )));
                }
                let kind = it.next().ok_or_else(|| {
                    DimacsError::Parse(format!("line {lineno}: missing problem kind"))
                })?;
                if kind != "sp" {
                    return Err(DimacsError::Parse(format!(
                        "line {lineno}: unsupported problem kind '{kind}'"
                    )));
                }
                let n: usize = parse_field(it.next(), lineno, "vertex count")?;
                let arcs: usize = parse_field(it.next(), lineno, "arc count")?;
                if n > MAX_GRAPH_VERTICES {
                    return Err(DimacsError::Parse(format!(
                        "line {lineno}: vertex count {n} exceeds {MAX_GRAPH_VERTICES}"
                    )));
                }
                vertices = Some(n);
                sink(GrRecord::Problem { vertices: n, arcs })?;
            }
            Some("a") => {
                let n = vertices.ok_or_else(|| {
                    DimacsError::Parse(format!("line {lineno}: arc before problem line"))
                })?;
                let tail: usize = parse_field(it.next(), lineno, "arc tail")?;
                let head: usize = parse_field(it.next(), lineno, "arc head")?;
                let weight: Weight = parse_field(it.next(), lineno, "arc weight")?;
                if tail == 0 || head == 0 {
                    return Err(DimacsError::Parse(format!(
                        "line {lineno}: DIMACS vertex ids are 1-based (got '{}')",
                        if tail == 0 { tail } else { head }
                    )));
                }
                if tail > n || head > n {
                    return Err(DimacsError::Parse(format!(
                        "line {lineno}: vertex id '{}' exceeds declared vertex count {n}",
                        if tail > n { tail } else { head }
                    )));
                }
                sink(GrRecord::Arc { tail, head, weight })?;
            }
            Some(other) => {
                return Err(DimacsError::Parse(format!(
                    "line {lineno}: unknown record '{other}'"
                )))
            }
            None => continue,
        }
    }
    if vertices.is_none() {
        return Err(DimacsError::Parse(format!(
            "line {}: missing 'p sp' problem line before the end of the input",
            lines.max(1)
        )));
    }
    Ok(())
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, DimacsError> {
    let token =
        field.ok_or_else(|| DimacsError::Parse(format!("line {lineno}: missing {what}")))?;
    token
        .parse()
        .map_err(|_| DimacsError::Parse(format!("line {lineno}: invalid {what} '{token}'")))
}

/// Parses a DIMACS `.gr` graph from any buffered reader into a [`Graph`]
/// (edge ids in file order).
pub fn read_gr<R: BufRead>(reader: R) -> Result<Graph, DimacsError> {
    let mut builder: Option<GraphBuilder> = None;
    scan_gr(reader, |rec| {
        match rec {
            GrRecord::Problem { vertices, .. } => builder = Some(GraphBuilder::new(vertices)),
            GrRecord::Arc { tail, head, weight } => {
                let b = builder
                    .as_mut()
                    .expect("scanner emits arcs only after the problem line");
                if tail != head {
                    b.add_edge(
                        VertexId::from_index(tail - 1),
                        VertexId::from_index(head - 1),
                        weight.max(1),
                    );
                }
            }
        }
        Ok(())
    })?;
    Ok(builder.expect("scanner guarantees a problem line").build())
}

/// Reads a `.gr` file from disk.
pub fn read_gr_file<P: AsRef<Path>>(path: P) -> Result<Graph, DimacsError> {
    let file = std::fs::File::open(path)?;
    read_gr(std::io::BufReader::new(file))
}

/// Streams a DIMACS `.gr` graph straight into a [`Graph`], without the
/// builder's hash map.
///
/// Arcs are normalized (`u < v`, self-loops dropped) into a 12-byte triple
/// buffer as they are read; one sort + dedup pass (minimum weight wins for
/// parallel arcs, matching [`GraphBuilder`]) then yields the edge list the
/// CSR is counting-sorted from. Peak transient memory is ~12 bytes per
/// directed arc, well below the builder path's hash map.
///
/// Edge ids are assigned in sorted `(u, v)` order (not file order); use
/// [`read_gr`] when file-order ids matter.
pub fn load_dimacs_streaming<R: BufRead>(reader: R) -> Result<Graph, DimacsError> {
    let mut n = 0usize;
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    scan_gr(reader, |rec| {
        match rec {
            GrRecord::Problem { vertices, arcs } => {
                n = vertices;
                // The declared arc count is advisory; cap the reservation so
                // a lying header cannot force an allocation.
                triples.reserve(arcs.min(1 << 24));
            }
            GrRecord::Arc { tail, head, weight } => {
                if tail != head {
                    let (a, b) = if tail < head {
                        (tail, head)
                    } else {
                        (head, tail)
                    };
                    triples.push(((a - 1) as u32, (b - 1) as u32, weight.max(1)));
                }
            }
        }
        Ok(())
    })?;
    triples.sort_unstable();
    // Sorted by (u, v, w): the first element of each (u, v) run carries the
    // minimum weight, and `dedup_by` keeps the first.
    triples.dedup_by(|later, kept| later.0 == kept.0 && later.1 == kept.1);
    let mut edges = Vec::with_capacity(triples.len());
    let mut weights: Vec<Weight> = Vec::with_capacity(triples.len());
    for &(u, v, w) in &triples {
        edges.push((VertexId(u), VertexId(v)));
        weights.push(w);
    }
    drop(triples);
    Ok(Graph::from_normalized_edges(n, &edges, &weights))
}

/// Streams a `.gr` file from disk into a [`Graph`]
/// (see [`load_dimacs_streaming`]).
pub fn load_dimacs_streaming_file<P: AsRef<Path>>(path: P) -> Result<Graph, DimacsError> {
    let file = std::fs::File::open(path)?;
    load_dimacs_streaming(std::io::BufReader::new(file))
}

/// Writes a graph in DIMACS `.gr` format (each undirected edge is emitted as
/// two directed arcs, as the challenge files do).
pub fn write_gr<W: Write>(graph: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "c generated by htsp-graph")?;
    writeln!(w, "p sp {} {}", graph.num_vertices(), 2 * graph.num_edges())?;
    for (_, u, v, weight) in graph.edges() {
        writeln!(w, "a {} {} {}", u.0 + 1, v.0 + 1, weight)?;
        writeln!(w, "a {} {} {}", v.0 + 1, u.0 + 1, weight)?;
    }
    w.flush()
}

/// Writes a `.gr` file to disk.
pub fn write_gr_file<P: AsRef<Path>>(graph: &Graph, path: P) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_gr(graph, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid, WeightRange};
    use crate::types::Dist;

    #[test]
    fn parse_minimal_file() {
        let text = "c tiny\np sp 3 4\na 1 2 5\na 2 1 5\na 2 3 7\na 3 2 7\n";
        let g = read_gr(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(5));
        assert_eq!(g.edge_dist(VertexId(1), VertexId(2)), Dist(7));
    }

    #[test]
    fn asymmetric_arcs_keep_minimum() {
        let text = "p sp 2 2\na 1 2 9\na 2 1 4\n";
        let g = read_gr(text.as_bytes()).unwrap();
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(4));
    }

    #[test]
    fn self_loops_dropped() {
        let text = "p sp 2 2\na 1 1 9\na 1 2 3\n";
        let g = read_gr(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn missing_problem_line_is_error() {
        let text = "a 1 2 3\n";
        assert!(read_gr(text.as_bytes()).is_err());
    }

    #[test]
    fn unknown_record_is_error() {
        let text = "p sp 2 1\nx 1 2 3\n";
        assert!(read_gr(text.as_bytes()).is_err());
    }

    #[test]
    fn zero_based_id_is_error() {
        let text = "p sp 2 1\na 0 2 3\n";
        assert!(read_gr(text.as_bytes()).is_err());
    }

    #[test]
    fn out_of_range_id_is_error_not_panic() {
        let text = "p sp 2 1\na 1 9 3\n";
        match read_gr(text.as_bytes()) {
            Err(DimacsError::Parse(msg)) => {
                assert!(
                    msg.contains("line 2") && msg.contains("'9'"),
                    "message should carry line and token: {msg}"
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_gr_format() {
        let g = grid(6, 5, WeightRange::new(1, 30), 77);
        let mut buf = Vec::new();
        write_gr(&g, &mut buf).unwrap();
        let g2 = read_gr(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (_, u, v, w) in g.edges() {
            assert_eq!(g2.edge_dist(u, v), Dist(w));
        }
    }

    #[test]
    fn streaming_loader_matches_builder_path() {
        let g = grid(8, 7, WeightRange::new(1, 50), 21);
        let mut buf = Vec::new();
        write_gr(&g, &mut buf).unwrap();
        let back = load_dimacs_streaming(buf.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        back.validate().expect("streamed graph is valid");
        for (_, u, v, w) in g.edges() {
            assert_eq!(back.edge_dist(u, v), Dist(w));
        }
    }

    #[test]
    fn streaming_loader_dedups_parallel_arcs_with_min_weight() {
        let text = "p sp 3 5\na 1 2 9\na 2 1 4\nc noise\na 1 2 6\na 2 3 2\na 3 3 8\n";
        let g = load_dimacs_streaming(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2, "parallel arcs merge, self-loop drops");
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(4));
        assert_eq!(g.edge_dist(VertexId(1), VertexId(2)), Dist(2));
    }

    #[test]
    fn truncated_arc_line_is_error_with_line_number() {
        let text = "p sp 3 2\na 1 2 5\na 2 3\n";
        match read_gr(text.as_bytes()) {
            Err(DimacsError::Parse(msg)) => {
                assert!(
                    msg.contains("line 3"),
                    "message should locate the line: {msg}"
                );
                assert!(
                    msg.contains("arc weight"),
                    "message should name the field: {msg}"
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_numeric_weight_error_carries_the_token() {
        let text = "p sp 2 1\na 1 2 fast\n";
        match read_gr(text.as_bytes()) {
            Err(DimacsError::Parse(msg)) => {
                assert!(
                    msg.contains("line 2")
                        && msg.contains("invalid arc weight")
                        && msg.contains("'fast'"),
                    "message should carry line, field, and token: {msg}"
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_problem_line_is_error() {
        assert!(read_gr("p sp many 4\n".as_bytes()).is_err());
        assert!(read_gr("p max 3 4\n".as_bytes()).is_err());
        assert!(read_gr("p sp\n".as_bytes()).is_err());
        assert!(read_gr("p sp 3 4\np sp 3 4\n".as_bytes()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_accepted_anywhere() {
        let text = "c header\n\nc more\np sp 2 2\nc mid\na 1 2 4\n\na 2 1 4\nc trailing\n";
        for g in [
            load_dimacs_streaming(text.as_bytes()).unwrap(),
            read_gr(text.as_bytes()).unwrap(),
        ] {
            assert_eq!((g.num_vertices(), g.num_edges()), (2, 1));
        }
    }

    #[test]
    fn zero_weight_is_clamped_to_one() {
        let text = "p sp 2 1\na 1 2 0\n";
        let g = read_gr(text.as_bytes()).unwrap();
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(1));
        let g = load_dimacs_streaming(text.as_bytes()).unwrap();
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(1));
    }

    /// Fuzz-ish sweep: systematically mangled inputs must produce
    /// `DimacsError` values, never panics, through both loaders.
    #[test]
    fn mangled_inputs_error_cleanly() {
        let base = "c ok\np sp 3 4\na 1 2 5\na 2 3 7\n";
        let mut cases: Vec<String> = vec![
            String::new(),
            "\n\n\n".into(),
            "c only comments\n".into(),
            "p sp -3 4\na 1 2 5\n".into(),
            "p sp 3 4\na 1 2 5 trailing junk is fine\n".into(),
            "p sp 3 4\na 1 2\n".into(),
            "p sp 3 4\na one 2 3\n".into(),
            "p sp 3 4\na 1 2 99999999999999999999\n".into(),
            "p sp 3 4\nb 1 2 3\n".into(),
            "p sp 3 4\na 4 1 3\n".into(),
            "p sp 18446744073709551616 4\n".into(),
            "p sp 3\n".into(),
            "q sp 3 4\n".into(),
            "p sp 3 4\na 0 0 0\n".into(),
        ];
        // Every truncation of a valid file, and every single-byte deletion.
        for i in 0..base.len() {
            cases.push(base[..i].to_string());
            let mut s = base.to_string();
            s.remove(i);
            cases.push(s);
        }
        for case in &cases {
            // Outcomes may differ (some mutations stay valid); the contract
            // is simply: no panic, and failures are typed.
            let _ = read_gr(case.as_bytes());
            let _ = load_dimacs_streaming(case.as_bytes());
        }
    }

    #[test]
    fn a_vertex_count_above_the_bound_is_an_error_before_anything_is_sized() {
        let above = MAX_GRAPH_VERTICES + 1;
        let past_u32 = u32::MAX as usize + 2;
        for (text, line) in [
            (format!("p sp {above} 0\n"), 1),
            // The arc's head would wrap to vertex 0 as a `u32`: a self-loop.
            (
                format!("c a header that lies\np sp {past_u32} 1\na 1 {past_u32} 5\n"),
                2,
            ),
        ] {
            // The loaders size their arrays from the problem record; it never
            // reaches them.
            let mut records = 0;
            let scanned = scan_gr(text.as_bytes(), |_| {
                records += 1;
                Ok(())
            });
            assert!(matches!(scanned, Err(DimacsError::Parse(_))), "{text}");
            assert_eq!(records, 0, "{text}");
            for result in [
                read_gr(text.as_bytes()),
                load_dimacs_streaming(text.as_bytes()),
            ] {
                match result {
                    Err(DimacsError::Parse(msg)) => {
                        assert!(msg.contains(&format!("line {line}:")), "{msg}");
                        assert!(msg.contains("vertex count"), "{msg}");
                    }
                    other => panic!("expected a parse error, got {other:?}"),
                }
            }
        }
    }

    /// Every prefix of a small file with comments between its records, as a
    /// download cut short leaves it: through both loaders, a graph holding
    /// no more than the whole file's edges, or a parse error that names a
    /// line. Never a panic.
    #[test]
    fn every_prefix_of_a_file_loads_or_names_a_line() {
        let text = "c a small road network\nc\np sp 6 14\nc arcs follow\n\
                    a 1 2 17\na 2 1 17\nc a comment between arcs\na 2 3 5\n\
                    a 3 2 4\na 3 4 120\na 4 5 9\n\nc trailing\na 5 6 33\na 6 1 2\n\
                    a 6 6 8\nc done\n";
        let whole = read_gr(text.as_bytes()).unwrap().num_edges();
        assert_eq!(whole, 6);
        for end in 0..=text.len() {
            let prefix = &text.as_bytes()[..end];
            for result in [read_gr(prefix), load_dimacs_streaming(prefix)] {
                match result {
                    Ok(g) => assert!(g.num_edges() <= whole, "prefix {end}"),
                    Err(DimacsError::Parse(msg)) => {
                        assert!(msg.starts_with("line "), "prefix {end}: {msg}")
                    }
                    Err(e) => panic!("prefix {end}: {e}"),
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = grid(4, 4, WeightRange::new(1, 10), 3);
        let dir = std::env::temp_dir().join("htsp_dimacs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.gr");
        write_gr_file(&g, &path).unwrap();
        let g2 = read_gr_file(&path).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        let streamed = load_dimacs_streaming_file(&path).unwrap();
        assert_eq!(streamed.num_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }
}
