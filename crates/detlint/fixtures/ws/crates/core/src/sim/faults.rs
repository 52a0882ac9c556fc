use super::Sim;

impl Sim {
    pub fn bad_retry_order(&self) -> Vec<u64> {
        self.retries.keys().copied().collect()
    }
}
