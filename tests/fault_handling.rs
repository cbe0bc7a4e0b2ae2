//! Failure-injection tests: the virtual machine must fail *cleanly* and
//! in agreement with the reference interpreter, never panic or diverge.

use vta::dbt::{System, SystemError, VirtualArchConfig};
use vta::raw::exec::Fault;
use vta::x86::{Asm, Cpu, CpuError, GuestImage, MemRef, Reg};

const BASE: u32 = 0x0800_0000;

fn image(f: impl FnOnce(&mut Asm)) -> GuestImage {
    let mut asm = Asm::new(BASE);
    f(&mut asm);
    GuestImage::from_code(asm.finish()).with_bss(0x0900_0000, 0x1000)
}

#[test]
fn jump_into_unmapped_memory() {
    let img = image(|a| {
        a.mov_ri(Reg::EAX, 0x4000_0000);
        a.jmp_r(Reg::EAX);
    });
    // Reference: decode fault.
    let mut cpu = Cpu::new(&img);
    assert!(matches!(cpu.run(100), Err(CpuError::Decode(_))));
    // VM: translation of the demanded address fails.
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    assert!(matches!(
        sys.run(100),
        Err(SystemError::Translate {
            addr: 0x4000_0000,
            ..
        })
    ));
}

#[test]
fn jump_into_data_that_does_not_decode() {
    // 0x0F 0x31 (rdtsc) is outside the supported subset.
    let img = GuestImage::from_code(vta::x86::Program {
        base: BASE,
        code: vec![0x0F, 0x31],
    });
    let mut cpu = Cpu::new(&img);
    assert!(matches!(cpu.run(100), Err(CpuError::Decode(_))));
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    assert!(matches!(sys.run(100), Err(SystemError::Translate { .. })));
}

#[test]
fn wild_store_faults_identically() {
    let img = image(|a| {
        a.mov_ri(Reg::EBX, 0x7777_0000);
        a.mov_mr(MemRef::base_disp(Reg::EBX, 0), Reg::EAX);
        a.hlt();
    });
    let mut cpu = Cpu::new(&img);
    let ref_err = cpu.run(100);
    assert!(matches!(
        ref_err,
        Err(CpuError::Unmapped {
            addr: 0x7777_0000,
            ..
        })
    ));
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    match sys.run(100) {
        Err(SystemError::GuestFault {
            fault: Fault::Unmapped { addr },
            ..
        }) => {
            assert_eq!(addr, 0x7777_0000);
        }
        other => panic!("expected unmapped fault, got {other:?}"),
    }
}

#[test]
fn divide_overflow_faults_identically() {
    // EDX:EAX = 2^32, divisor 1 → quotient overflow, a #DE on real x86.
    let img = image(|a| {
        a.mov_ri(Reg::EAX, 0);
        a.mov_ri(Reg::EDX, 1);
        a.mov_ri(Reg::ECX, 1);
        a.div_r(Reg::ECX);
        a.hlt();
    });
    let mut cpu = Cpu::new(&img);
    assert!(matches!(cpu.run(100), Err(CpuError::DivideError { .. })));
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    assert!(matches!(
        sys.run(100),
        Err(SystemError::GuestFault {
            fault: Fault::DivZero,
            ..
        })
    ));
}

#[test]
fn speculation_into_garbage_does_not_kill_the_run() {
    // A never-taken branch points into data bytes that do not decode;
    // the speculative translator must absorb the failure and the program
    // must still complete correctly.
    let img = image(|a| {
        let garbage = a.label();
        a.mov_ri(Reg::EAX, 5);
        a.test_ri(Reg::ESP, 0); // ZF always set
        a.jcc(vta::x86::Cond::Ne, garbage); // never taken
        a.add_ri(Reg::EAX, 1);
        a.exit_with_eax();
        a.bind(garbage);
        a.raw(&[0x0F, 0x31, 0x0F, 0x31]); // undecodable
    });
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    let report = sys.run(100_000).expect("must survive bad speculation");
    assert_eq!(report.exit_code, Some(6));
}

#[test]
fn insn_budget_is_honored_exactly_enough() {
    let img = image(|a| {
        let top = a.here();
        a.inc_r(Reg::EAX);
        a.jmp(top);
    });
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    let report = sys.run(5_000).expect("budget stop is not an error");
    assert_eq!(report.stop, vta::dbt::StopCause::InsnBudget);
    assert!(report.guest_insns >= 5_000);
    // One block beyond the budget at most (budget is checked per block).
    assert!(report.guest_insns < 5_000 + 64);
}

#[test]
fn code_whose_last_byte_is_the_last_address_runs_on_every_layer() {
    // `mov eax, 7; exit` ending exactly at 2^32: the decoder's cursor
    // wraps to 0 on the last instruction, which must not be arithmetic
    // a debug build panics on — not in the interpreter, not in the
    // translator, not in the fuzz oracle's functional loop.
    let assemble = |base| {
        let mut a = Asm::new(base);
        a.mov_ri(Reg::EAX, 7);
        a.exit_with_eax();
        a.finish()
    };
    let len = assemble(0).code.len() as u32;
    let img = GuestImage::from_code(assemble(0u32.wrapping_sub(len)));
    assert_eq!(img.code_base.wrapping_add(len), 0);
    let mut cpu = Cpu::new(&img);
    assert_eq!(cpu.run(100), Ok(vta::x86::StopReason::Exit(7)));
    let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
    assert_eq!(sys.run(100).expect("runs").exit_code, Some(7));
    assert_eq!(vta::ir::fuzz::run_image(&img), vta::ir::fuzz::Verdict::Pass);
}
