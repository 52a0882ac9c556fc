use std::collections::HashMap;

mod faults;

pub struct Sim {
    retries: HashMap<u64, u32>,
}
