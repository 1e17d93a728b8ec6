//! The crate's one `unsafe` exception stays one.

#[test]
fn crate_src_holds_exactly_one_unsafe_block() {
    // Regression guard for the AVX2 forward pass: `lib.rs` denies
    // `unsafe_code`, and the only exception is the call of the AVX2 copy
    // of `PicModel::forward_into` after `is_x86_feature_detected!`. Scan
    // every source file (comments excluded): one `unsafe` keyword, one
    // `unsafe {` block and one `allow(unsafe_code)`, so a second exception
    // cannot slip in unnoticed.
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let (mut keywords, mut blocks, mut allows) = (Vec::new(), Vec::new(), Vec::new());
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let at = format!("{name}:{}", i + 1);
            let words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            keywords.extend(words.filter(|w| *w == "unsafe").map(|_| at.clone()));
            if code.contains("unsafe {") {
                blocks.push(at.clone());
            }
            if code.contains("allow(unsafe_code)") {
                allows.push(at.clone());
            }
        }
    }
    assert_eq!(keywords.len(), 1, "`unsafe` keywords in src/: {keywords:?}");
    assert_eq!(blocks.len(), 1, "`unsafe` blocks in src/: {blocks:?}");
    assert_eq!(allows.len(), 1, "`allow(unsafe_code)` in src/: {allows:?}");
    let lib = std::fs::read_to_string(src.join("lib.rs")).unwrap();
    assert!(lib.contains("#![deny(unsafe_code)]"), "lib.rs must deny unsafe_code");
}
