// Fixture: under src/, every declaration here must trip R5 — an ISA
// attribute or pragma that lets the compiler contract a multiply and an
// add into an FMA (or picks an unsanctioned ISA), or an optimize override.
__attribute__((target("avx2,fma"))) void AddWithFma();
__attribute__((target_clones("arch=haswell", "default"))) void ForArch();
[[gnu::target("avx512f")]] void Avx512();
#pragma GCC target("fma")
__attribute__((optimize("O3"))) void Optimized();
#pragma GCC optimize("fast-math")
