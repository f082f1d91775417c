// Known-bad fixture: `#[cfg(test)]` on a variant and on a match arm
// ends at the `,`, so the production code after each stays in scope.
pub enum Job {
    Tick(u64),
    #[cfg(test)]
    Wedge(u64),
}

pub fn after_variant(x: Option<u64>) -> u64 {
    x.expect("variant exemption must not reach here")
}

pub fn arm(job: Job) -> u64 {
    match job {
        #[cfg(test)]
        Job::Wedge(ms) => Some(ms).unwrap(),
        Job::Tick(t) => Some(t).expect("arm exemption must not reach here"),
    }
}
