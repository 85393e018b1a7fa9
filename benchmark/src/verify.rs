//! Output checks shared by the workloads. A job or task whose output fails
//! its check counts as failed in the run's result line.

/// Check that `ids` holds every id of `first..first + n` exactly once.
pub fn exactly_once(
    ids: impl IntoIterator<Item = u64>,
    first: u64,
    n: usize,
) -> Result<(), String> {
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for id in ids {
        let slot = id
            .checked_sub(first)
            .map(|i| i as usize)
            .filter(|&i| i < n)
            .ok_or_else(|| format!("id {id} outside {first}..{}", first + n as u64))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("id {id} seen twice"));
        }
        count += 1;
    }
    if count != n {
        let missing = seen.iter().position(|&s| !s).expect("count < n") as u64 + first;
        return Err(format!("{count} of {n} ids seen, id {missing} missing"));
    }
    Ok(())
}

/// `Ok` iff `cond`, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_permutation_passes() {
        assert!(exactly_once([12, 10, 11], 10, 3).is_ok());
        assert!(exactly_once([], 0, 0).is_ok());
    }

    #[test]
    fn duplicated_missing_and_foreign_ids_are_flagged() {
        let dup = exactly_once([10, 11, 11], 10, 3).unwrap_err();
        assert!(dup.contains("twice"), "{dup}");
        let missing = exactly_once([10, 12], 10, 3).unwrap_err();
        assert!(missing.contains("id 11 missing"), "{missing}");
        assert!(exactly_once([10, 11, 13], 10, 3).is_err());
        assert!(exactly_once([9, 10, 11], 10, 3).is_err());
    }
}
