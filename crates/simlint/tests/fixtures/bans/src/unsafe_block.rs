// Under `unsafe_code = "forbid"` in the manifest's lint table, no
// `#![forbid]` attribute is needed for an unsafe block to fail.
pub fn first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
