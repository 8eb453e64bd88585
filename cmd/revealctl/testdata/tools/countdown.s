# countdown: sums 10..1 into a1, folds a product into a2, stores the sum
# and reads it back, then halts. Small enough for a golden register dump
# and power trace; several labels (two share an address) for -disasm.
start:
entry:
        li   a0, 10
        li   a1, 0
        li   a2, 1
loop:
        add  a1, a1, a0
        mul  a2, a2, a0
        addi a0, a0, -1
        bnez a0, loop
done:
        la   t0, result
        sw   a1, 0(t0)
        lw   a3, 0(t0)
        ebreak
result:
        .word 0
