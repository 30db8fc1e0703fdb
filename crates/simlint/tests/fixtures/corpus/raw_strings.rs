// Hazards spelled inside raw strings must never fire. The embedded quotes
// are the point: a quote-pair scrubber flips in and out of "string"
// state and leaks the middle of the literal as code.
fn doc_text() -> &'static str {
    let a = r#"call "v.sort_by(|a, b| a.partial_cmp(b))" here"#;
    let b = br##"bytes: "q.schedule(p as *const u8 as u64)" and "static mut X: u8""##;
    let c = r"plain raw d.as_nanos() as f64";
    let _ = (b, c);
    a
}
