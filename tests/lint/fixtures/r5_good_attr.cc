// Fixture: must produce zero findings under src/. AVX2 without FMA and the
// default target are sanctioned; mentions in comments and strings — such
// as target("fma") or #pragma GCC optimize("O3") here — are not code.
__attribute__((target("avx2"))) void Kernel();
__attribute__((target("default"))) void Kernel();
__attribute__((target_clones("avx2", "default"))) void Cloned();
const char* kDoc = "__attribute__((target(\"fma\")))";
int target(int x);
// hfr-lint: allow(R5): fixture for the suppression form
__attribute__((target("fma"))) void Suppressed();
