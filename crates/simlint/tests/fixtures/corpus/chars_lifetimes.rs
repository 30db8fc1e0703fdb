// Lifetimes and char literals must not confuse the lexer: the `'a` in
// a generic list is not an unterminated char whose "body" swallows the
// rest of the file (which would hide the real hazard on the last line).
struct Holder<'a> {
    name: &'a str,
}

fn pick<'a, 'b: 'a>(x: &'a str, _y: &'b str) -> (&'a str, char, char, u8) {
    (x, 'I', '\'', b'"')
}

static mut LAST_PICK: char = 'I';
