//! Linux-like `int 0x80` syscall ABI shared by the reference interpreter
//! and the DBT's syscall-proxy tile.
//!
//! The paper's system runs "userland statically-linked Linux x86 binaries"
//! with a *proxy system call interface* (§5): guest syscalls are fielded by
//! a dedicated tile and serviced outside the guest. Both execution paths in
//! this reproduction call into this one dispatcher so their observable
//! behaviour is identical by construction.

use crate::mem::GuestMem;

/// Syscall numbers we service (i386 Linux ABI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// `exit(code)` — nr 1.
    Exit,
    /// `read(fd, buf, len)` — nr 3; fd 0 reads the synthetic input stream.
    Read,
    /// `write(fd, buf, len)` — nr 4; fds 1/2 append to the output stream.
    Write,
    /// `getpid()` — nr 20.
    GetPid,
    /// `brk(addr)` — nr 45; grows the heap mapping.
    Brk,
    /// `time(NULL)` — nr 13; returns a deterministic fake time.
    Time,
    /// Anything else (returns `-ENOSYS`).
    Unknown(u32),
}

impl Syscall {
    /// Classifies a syscall number.
    pub fn from_nr(nr: u32) -> Syscall {
        match nr {
            1 => Syscall::Exit,
            3 => Syscall::Read,
            4 => Syscall::Write,
            13 => Syscall::Time,
            20 => Syscall::GetPid,
            45 => Syscall::Brk,
            other => Syscall::Unknown(other),
        }
    }
}

/// Outcome of a syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallResult {
    /// Execution continues; the value goes into `EAX`.
    Continue(u32),
    /// The guest called `exit(code)`.
    Exit(u32),
}

/// Guest-visible operating-system state.
///
/// # Examples
///
/// ```
/// use vta_x86::{GuestMem, SysState, SyscallResult};
///
/// let mut mem = GuestMem::new();
/// mem.load_bytes(0x2000, b"hi");
/// let mut sys = SysState::new(0x0A00_0000);
/// // write(1, 0x2000, 2)
/// let r = sys.dispatch(&mut mem, 4, [1, 0x2000, 2]);
/// assert_eq!(r, SyscallResult::Continue(2));
/// assert_eq!(sys.output, b"hi");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SysState {
    /// Bytes available to `read(0, ..)`.
    pub input: Vec<u8>,
    /// Read cursor into `input`.
    pub input_pos: usize,
    /// Everything the guest wrote to fds 1 and 2.
    pub output: Vec<u8>,
    /// Initial program break.
    pub brk_base: u32,
    /// Current program break.
    pub brk: u32,
    /// Count of syscalls serviced, by kind, for statistics.
    pub count: u64,
}

/// `-ENOSYS` in two's complement.
pub(crate) const ENOSYS: u32 = (-38i32) as u32;

impl SysState {
    /// Creates OS state with the program break at `brk_base`.
    pub fn new(brk_base: u32) -> Self {
        SysState {
            brk_base,
            brk: brk_base,
            ..SysState::default()
        }
    }

    /// Supplies bytes for the guest to `read`.
    pub fn set_input(&mut self, input: Vec<u8>) {
        self.input = input;
        self.input_pos = 0;
    }

    /// Services syscall `nr` with up-to-three arguments, mutating guest
    /// memory for `read`/`brk`.
    pub fn dispatch(&mut self, mem: &mut GuestMem, nr: u32, args: [u32; 3]) -> SyscallResult {
        self.count += 1;
        match Syscall::from_nr(nr) {
            Syscall::Exit => SyscallResult::Exit(args[0]),
            Syscall::Read => {
                let [fd, buf, len] = args;
                if fd != 0 {
                    return SyscallResult::Continue((-9i32) as u32); // -EBADF
                }
                let avail = self.input.len() - self.input_pos;
                let n = (len as usize).min(avail);
                let bytes = &self.input[self.input_pos..self.input_pos + n];
                if mem.write_bytes(buf, bytes).is_err() {
                    // The bytes before the unmapped page stay written.
                    return SyscallResult::Continue((-14i32) as u32); // -EFAULT
                }
                self.input_pos += n;
                SyscallResult::Continue(n as u32)
            }
            Syscall::Write => {
                let [fd, buf, len] = args;
                if fd != 1 && fd != 2 {
                    return SyscallResult::Continue((-9i32) as u32);
                }
                match mem.read_bytes(buf, len) {
                    Ok(bytes) => {
                        self.output.extend_from_slice(&bytes);
                        SyscallResult::Continue(len)
                    }
                    Err(_) => SyscallResult::Continue((-14i32) as u32),
                }
            }
            Syscall::GetPid => SyscallResult::Continue(42),
            Syscall::Time => SyscallResult::Continue(1_141_171_200), // 2006-03-01
            Syscall::Brk => {
                let req = args[0];
                if req == 0 {
                    return SyscallResult::Continue(self.brk);
                }
                if req >= self.brk_base && req < self.brk_base + 0x0100_0000 {
                    if req > self.brk {
                        mem.map_zeroed(self.brk, req);
                    }
                    self.brk = req;
                }
                SyscallResult::Continue(self.brk)
            }
            Syscall::Unknown(_) => SyscallResult::Continue(ENOSYS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_propagates_code() {
        let mut sys = SysState::new(0x1000);
        let mut mem = GuestMem::new();
        assert_eq!(sys.dispatch(&mut mem, 1, [7, 0, 0]), SyscallResult::Exit(7));
    }

    #[test]
    fn read_consumes_input() {
        let mut sys = SysState::new(0x1000);
        sys.set_input(b"abcdef".to_vec());
        let mut mem = GuestMem::new();
        mem.map_zeroed(0x2000, 0x3000);
        assert_eq!(
            sys.dispatch(&mut mem, 3, [0, 0x2000, 4]),
            SyscallResult::Continue(4)
        );
        assert_eq!(mem.read_bytes(0x2000, 4).unwrap(), b"abcd");
        // Short read at end of input.
        assert_eq!(
            sys.dispatch(&mut mem, 3, [0, 0x2000, 10]),
            SyscallResult::Continue(2)
        );
    }

    #[test]
    fn write_collects_output() {
        let mut sys = SysState::new(0x1000);
        let mut mem = GuestMem::new();
        mem.load_bytes(0x2000, b"hello");
        sys.dispatch(&mut mem, 4, [1, 0x2000, 5]);
        sys.dispatch(&mut mem, 4, [2, 0x2000, 2]);
        assert_eq!(sys.output, b"hellohe");
    }

    #[test]
    fn brk_grows_heap() {
        let mut sys = SysState::new(0x0A00_0000);
        let mut mem = GuestMem::new();
        // Query.
        assert_eq!(
            sys.dispatch(&mut mem, 45, [0, 0, 0]),
            SyscallResult::Continue(0x0A00_0000)
        );
        // Grow.
        sys.dispatch(&mut mem, 45, [0x0A00_2000, 0, 0]);
        assert!(mem.is_mapped(0x0A00_1000));
        assert_eq!(sys.brk, 0x0A00_2000);
        // Bogus request leaves brk unchanged.
        sys.dispatch(&mut mem, 45, [0x100, 0, 0]);
        assert_eq!(sys.brk, 0x0A00_2000);
    }

    #[test]
    fn unknown_returns_enosys() {
        let mut sys = SysState::new(0);
        let mut mem = GuestMem::new();
        assert_eq!(
            sys.dispatch(&mut mem, 999, [0, 0, 0]),
            SyscallResult::Continue(ENOSYS)
        );
    }

    #[test]
    fn bad_fd_is_ebadf() {
        let mut sys = SysState::new(0);
        let mut mem = GuestMem::new();
        assert_eq!(
            sys.dispatch(&mut mem, 4, [5, 0, 0]),
            SyscallResult::Continue((-9i32) as u32)
        );
    }
}
