// detlint UI fixture: deny-alloc. Not compiled — detlint is lexical.

#[deny_alloc]
fn hot(x: u32, name: &str) -> u32 {
    let s = format!("{x}");
    let v: Vec<u32> = Vec::new();
    let t = name.to_string();
    let c = s.clone();
    x
}

#[deny_alloc]
fn warmed(buf: &mut String) {
    let scratch: Vec<u8> = Vec::with_capacity(8);
    buf.push('x');
}

#[deny_alloc]
fn escape() {
    // detlint:allow(deny-alloc, one-time lazy initialisation, amortised to zero)
    let name = String::new();
}

fn cold(x: u32) -> String {
    format!("allocating outside deny_alloc is fine: {x}")
}

#[deny_alloc]
fn any_receiver(allocator: &Bump, arena: &mut Pool, layout: Layout) {
    let p = allocator.alloc(layout);
    let b = Box::new(p);
    let buf = arena.alloc();
}
