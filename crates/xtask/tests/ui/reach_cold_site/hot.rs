//! Cold sites sanctioned where they allocate, in code that carries no
//! annotation of its own: the zones below reach them through `store.rs`.

#[deny_alloc]
pub fn hot_refresh(store: &mut Store, key: &Key) {
    store.upsert(key);
}

#[deny_alloc]
pub fn hot_leaky(store: &mut Store, key: &Key) {
    store.upsert_and_log(key);
}
