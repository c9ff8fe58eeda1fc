// Tests for the PPRM-based exact equivalence checker.

#include "rev/equivalence.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/synthesizer.hpp"
#include "rev/random.hpp"
#include "rev/structural.hpp"
#include "templates/fredkinize.hpp"
#include "templates/simplify.hpp"

namespace rmrls {
namespace {

TEST(Equivalence, IdenticalCircuitsAreEquivalent) {
  std::mt19937_64 rng(71);
  const Circuit c = random_circuit(5, 15, GateLibrary::kGT, rng);
  EXPECT_TRUE(equivalent(c, c));
}

TEST(Equivalence, GatePairInsertionPreservesEquivalence) {
  std::mt19937_64 rng(72);
  const Circuit c = random_circuit(4, 10, GateLibrary::kGT, rng);
  Circuit padded = c;
  const Gate g(cube_of_var(0) | cube_of_var(2), 1);
  padded.append(g);
  padded.append(g);
  EXPECT_TRUE(equivalent(c, padded));
}

TEST(Equivalence, DetectsSingleGateDifference) {
  std::mt19937_64 rng(73);
  const Circuit c = random_circuit(4, 10, GateLibrary::kGT, rng);
  Circuit tweaked = c;
  tweaked.append(Gate(kConstOne, 2));
  EXPECT_FALSE(equivalent(c, tweaked));
}

TEST(Equivalence, WidthMismatchThrows) {
  EXPECT_THROW((void)equivalent(Circuit(3), Circuit(4)),
               std::invalid_argument);
  EXPECT_THROW((void)equivalent(Circuit(3), Pprm::identity(4)),
               std::invalid_argument);
}

TEST(Equivalence, AgainstPprmSpec) {
  // The shifter's reference circuit realizes exactly the structural PPRM.
  EXPECT_TRUE(equivalent(shifter_reference_circuit(6), shifter_pprm(6)));
  Circuit broken = shifter_reference_circuit(6);
  broken.append(Gate(kConstOne, 0));
  EXPECT_FALSE(equivalent(broken, shifter_pprm(6)));
}

TEST(Equivalence, WorksAtThirtyLines) {
  // Exact check where truth tables cannot exist.
  const Circuit ref = shifter_reference_circuit(28);
  EXPECT_TRUE(equivalent(ref, shifter_pprm(28)));
  Circuit reordered = ref;  // commuting +1/+2 chains: still equivalent
  EXPECT_TRUE(equivalent(reordered, ref));
}

TEST(Equivalence, TemplatePassesArePprmExact) {
  std::mt19937_64 rng(74);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c = random_circuit(5, 20, GateLibrary::kNCT, rng);
    c.append(c.gates()[3]);  // guarantee a duplicate to remove
    EXPECT_TRUE(equivalent(simplify_templates(c).circuit, c));
    EXPECT_TRUE(equivalent(fredkinize(c).circuit, c));
  }
}

// Differential check of the simulation path against reverse substitution,
// on both sides of kMaxSimulatedLines (above it the two coincide).
TEST(Equivalence, SimulationMatchesReverseSubstitution) {
  EXPECT_TRUE(equivalent(Circuit(0), Pprm(0)));
  EXPECT_TRUE(equivalent(Circuit(0), Circuit(0)));
  std::mt19937_64 rng(75);
  for (int n = 1; n <= kMaxSimulatedLines + 2; ++n) {
    for (const GateLibrary lib : {GateLibrary::kGT, GateLibrary::kNCT}) {
      for (int trial = 0; trial < 3; ++trial) {
        const int gates = 1 + static_cast<int>(rng() % 16);
        const Circuit base = random_circuit(n, gates, lib, rng);
        const Pprm spec = base.to_pprm();
        const auto random_gate = [&] {
          return random_circuit(n, 1, lib, rng).gates()[0];
        };
        Circuit appended = base;
        appended.append(random_gate());
        std::vector<Gate> replaced_gates = base.gates();
        replaced_gates[rng() % replaced_gates.size()] = random_gate();
        const Circuit replaced(n, std::move(replaced_gates));
        for (const Circuit& c : {base, appended, replaced}) {
          const Pprm own = c.to_pprm();
          EXPECT_EQ(equivalent(c, spec), own == spec)
              << "n=" << n << " trial=" << trial;
          EXPECT_EQ(equivalent(c, base), own == spec)
              << "n=" << n << " trial=" << trial;
        }
        EXPECT_TRUE(equivalent(base, spec));

        // Specs one cube off: a cube over the circuit's lines, and one
        // over a variable the circuit does not have.
        const int out = static_cast<int>(rng() % static_cast<unsigned>(n));
        const Cube inside = rng() & ((Cube{1} << n) - 1);
        const Cube foreign =
            cube_of_var(n + static_cast<int>(rng() % (kMaxVariables - n))) |
            inside;
        for (const Cube cube : {inside, foreign}) {
          Pprm toggled = spec;
          toggled.output(out).toggle(cube);
          EXPECT_FALSE(equivalent(base, toggled))
              << "n=" << n << " cube=" << cube;
          EXPECT_EQ(equivalent(appended, toggled),
                    appended.to_pprm() == toggled);
        }
      }
    }
  }
}

// implements(Circuit, Pprm) must agree with equivalent() on correct
// cascades and on cascades one gate off (one appended, one replaced), and
// a width mismatch is false, not a throw.
TEST(Equivalence, ImplementsAgreesWithEquivalentUpToSixteenLines) {
  std::mt19937_64 rng(76);
  for (int n = 1; n <= 16; ++n) {
    for (const GateLibrary lib : {GateLibrary::kGT, GateLibrary::kNCT}) {
      const Circuit base =
          random_circuit(n, 1 + static_cast<int>(rng() % 24), lib, rng);
      const Pprm spec = base.to_pprm();
      const Gate extra = random_circuit(n, 1, lib, rng).gates()[0];
      Circuit appended = base;
      appended.append(extra);
      std::vector<Gate> replaced_gates = base.gates();
      replaced_gates[rng() % replaced_gates.size()] = extra;
      const Circuit replaced(n, std::move(replaced_gates));
      EXPECT_TRUE(implements(base, spec)) << "n=" << n;
      for (const Circuit& c : {appended, replaced}) {
        EXPECT_EQ(implements(c, spec), equivalent(c, spec)) << "n=" << n;
      }
      EXPECT_FALSE(implements(Circuit(n + 1), spec)) << "n=" << n;
    }
  }
}

// A cascade one gate with n - 1 controls away from its spec differs from
// it on two of the 2^n inputs, which input sampling almost never draws;
// implements() rejects it above 16 lines too.
TEST(Equivalence, ImplementsRejectsOneWideGateOffAboveSixteenLines) {
  std::mt19937_64 rng(77);
  for (const int n : {17, 20}) {
    const Circuit base = random_circuit(n, 8, GateLibrary::kGT, rng);
    const Pprm spec = base.to_pprm();
    EXPECT_TRUE(implements(base, spec)) << "n=" << n;
    const Cube all_lines = (Cube{1} << n) - 1;
    for (int target = 0; target < n; ++target) {
      Circuit wrong = base;
      wrong.append(Gate(all_lines & ~cube_of_var(target), target));
      EXPECT_FALSE(implements(wrong, spec))
          << "n=" << n << " target=" << target;
    }
    EXPECT_FALSE(implements(Circuit(n + 1), spec)) << "n=" << n;
  }
}

}  // namespace
}  // namespace rmrls
