/* outer comment
   /* nested inner comment */
   still a comment: static mut LEAK: u8 = 0; and v.sort_by(|a, b| a.partial_cmp(b))
*/
fn clean() -> u32 {
    7
}
