//! Plain counter structs with field-wise difference and sum.

/// Declares a `Copy` struct of `u64` counters with `since` (field-wise
/// difference from an earlier snapshot) and `add` (field-wise sum).
macro_rules! counters {
    ($(#[$m:meta])* pub struct $name:ident { $($f:ident),* $(,)? }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name {
            $(pub $f: u64,)*
        }

        impl $name {
            /// Field-wise difference from `earlier`.
            pub fn since(&self, earlier: &$name) -> $name {
                $name { $($f: self.$f.saturating_sub(earlier.$f),)* }
            }

            /// Field-wise sum.
            pub fn add(&mut self, other: &$name) {
                $(self.$f += other.$f;)*
            }
        }
    };
}
