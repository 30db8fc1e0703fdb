//! One module per banned class. Every module but `local_shadow_instant`
//! must fail clippy at the lines bans.expected names.

pub mod alias_thread;
pub mod alias_unordered;
pub mod cfg_test_wallclock;
pub mod inert_allow_comment;
pub mod local_shadow_instant;
pub mod rand_alias;
pub mod random_state;
pub mod system_time_now;
pub mod thread_builder;
pub mod thread_scope;
pub mod thread_sleep;
pub mod unix_epoch_elapsed;
pub mod unsafe_block;
