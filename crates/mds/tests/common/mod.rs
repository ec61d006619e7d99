//! What the store's tests share: the one map from a store error to the
//! reference model's result class.

use cudele_mds::MdsError;
use cudele_model::Class;

/// The class of a checked op's result; an error outside the checked ops'
/// contract fails the test.
pub fn class(r: Result<(), MdsError>) -> Class {
    match r {
        Ok(()) => Class::Ok,
        Err(MdsError::NoEnt { .. }) => Class::NoEnt,
        Err(MdsError::Exists { .. }) => Class::Exists,
        Err(MdsError::NotDir { .. }) => Class::NotDir,
        Err(MdsError::IsDir { .. }) => Class::IsDir,
        Err(MdsError::NotEmpty { .. }) => Class::NotEmpty,
        Err(MdsError::InodeCollision { .. }) => Class::Collision,
        Err(MdsError::Invalid { .. }) => Class::Invalid,
        Err(e) => panic!("store returned an error outside its contract: {e}"),
    }
}
