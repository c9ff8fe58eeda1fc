// Tests for the Maslov/Barenco quantum-cost model.

#include "rev/quantum_cost.hpp"

#include <gtest/gtest.h>

namespace rmrls {
namespace {

TEST(ToffoliCost, SmallGatesAreFixed) {
  for (int free = 0; free < 4; ++free) {
    EXPECT_EQ(toffoli_cost(1, free), 1);
    EXPECT_EQ(toffoli_cost(2, free), 1);
    EXPECT_EQ(toffoli_cost(3, free), 5);
    EXPECT_EQ(toffoli_cost(4, free), 13);
  }
}

TEST(ToffoliCost, ExponentialWithoutFreeLines) {
  EXPECT_EQ(toffoli_cost(5, 0), 29);   // 2^5 - 3
  EXPECT_EQ(toffoli_cost(6, 0), 61);
  EXPECT_EQ(toffoli_cost(7, 0), 125);
  EXPECT_EQ(toffoli_cost(10, 0), 1021);
}

TEST(ToffoliCost, LinearWithBorrowedLine) {
  EXPECT_EQ(toffoli_cost(5, 1), 26);   // 12(m-3)+2
  EXPECT_EQ(toffoli_cost(6, 1), 38);
  EXPECT_EQ(toffoli_cost(7, 2), 50);
  EXPECT_EQ(toffoli_cost(8, 1), 62);
}

TEST(ToffoliCost, RejectsBadArguments) {
  EXPECT_THROW((void)toffoli_cost(0, 0), std::invalid_argument);
  EXPECT_THROW((void)toffoli_cost(3, -1), std::invalid_argument);
  EXPECT_THROW((void)toffoli_cost(63, 0), std::invalid_argument);  // overflow
}

TEST(QuantumCost, PaperAnchorRd32) {
  // rd32's published circuit: three CNOTs and one TOF3 -> cost 8
  // (Table IV gives rd32 cost 8 with 4 gates).
  Circuit c(4);
  c.append(Gate(cube_of_var(0), 1));
  c.append(Gate(cube_of_var(1) | cube_of_var(2), 3));
  c.append(Gate(cube_of_var(2), 1));
  c.append(Gate(cube_of_var(1), 0));
  EXPECT_EQ(quantum_cost(c), 8);
}

TEST(QuantumCost, PaperAnchorGraycode6) {
  // graycode6 = five CNOTs -> cost 5 (Table IV).
  Circuit c(6);
  for (int i = 0; i < 5; ++i) c.append(Gate(cube_of_var(i + 1), i));
  EXPECT_EQ(quantum_cost(c), 5);
}

TEST(QuantumCost, WideGateUsesFreeLineDiscount) {
  // A TOF5 on a 5-line circuit has no free line (cost 29); on 6 lines it
  // can borrow one (cost 26).
  Cube controls = 0;
  for (int v = 1; v < 5; ++v) controls |= cube_of_var(v);
  Circuit tight(5);
  tight.append(Gate(controls, 0));
  Circuit loose(6);
  loose.append(Gate(controls, 0));
  EXPECT_EQ(quantum_cost(tight), 29);
  EXPECT_EQ(quantum_cost(loose), 26);
}

TEST(QuantumCost, EmptyCircuitIsFree) {
  EXPECT_EQ(quantum_cost(Circuit(8)), 0);
}

}  // namespace
}  // namespace rmrls
