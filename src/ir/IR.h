//===- IR.h - The core ANF intermediate representation ----------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core language of Fig 1 in administrative normal form: a Body is a
/// sequence of bindings (each binding a multi-name pattern to one Exp)
/// followed by a result vector; expression operands are SubExps (constants
/// or variables).  SOACs take and produce several arrays, as in the paper's
/// compiler IR.  KernelExp is the flattened form produced by kernel
/// extraction (Section 5): a perfect map nest with an optional segmented
/// reduction/scan at the innermost level, which the GPU simulator executes
/// directly.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_IR_H
#define FUTHARKCC_IR_IR_H

#include "ir/Type.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace fut {

class Exp;
using ExpPtr = std::unique_ptr<Exp>;

/// One binding: let (p1, ..., pn) = e.
struct Stm {
  std::vector<Param> Pat;
  ExpPtr E;

  Stm() = default;
  Stm(std::vector<Param> Pat, ExpPtr E);
  Stm(const Stm &Other);
  Stm(Stm &&) = default;
  Stm &operator=(const Stm &Other);
  Stm &operator=(Stm &&) = default;
};

/// A sequence of bindings and a multi-value result.
struct Body {
  std::vector<Stm> Stms;
  std::vector<SubExp> Result;

  Body() = default;
  Body(std::vector<Stm> Stms, std::vector<SubExp> Result)
      : Stms(std::move(Stms)), Result(std::move(Result)) {}
};

/// An anonymous first-order function (the argument of a SOAC).
struct Lambda {
  std::vector<Param> Params;
  Body B;
  std::vector<Type> RetTypes;

  Lambda() = default;
  Lambda(std::vector<Param> Params, Body B, std::vector<Type> RetTypes)
      : Params(std::move(Params)), B(std::move(B)),
        RetTypes(std::move(RetTypes)) {}
};

/// Discriminator for the Exp hierarchy (LLVM-style kind-based RTTI).
enum class ExpKind : uint8_t {
  SubExpE,
  BinOpE,
  UnOpE,
  ConvOpE,
  If,
  Index,
  Apply,
  Loop,
  Update,
  Iota,
  Replicate,
  Rearrange,
  Reshape,
  Concat,
  Copy,
  Slice,
  Map,
  Reduce,
  Scan,
  Stream,
  ReduceByIndex,
  Kernel,
};

const char *expKindName(ExpKind K);

/// What an expression field holds.  Every expression class lists its fields
/// once, in a static `fields(X, Fn)` that calls Fn(role, field) or
/// Fn(role, field, present) per field; clone, the traversals of
/// ir/Traversal.h and the artifact codec are all derived from these lists
/// (ir/Fields.h).  The order is the traversal order: operands, which are
/// read in the enclosing scope, come before binders, and binders before the
/// lambdas and bodies that see them.  A field whose presence condition is
/// false is absent: it adds no operand or free variable and binds nothing,
/// but substitution and renaming still rewrite it, forEachChildBody still
/// visits its bodies, and clone and the codec still copy it.
enum class Role : uint8_t {
  Operand, ///< SubExp or vector<SubExp>.
  Array,   ///< VName or vector<VName>: an operand that must be a variable.
  Type,    ///< Type or vector<Type>: its dimensions are operands.
  Inputs,  ///< vector<KernelExp::KInput>: records with their own fields.
  Binder,  ///< VName, vector<VName> or vector<Param>, bound for later fields.
  Lambda,  ///< A nested anonymous function.
  Body,    ///< A nested body.
  Payload, ///< Names nothing: operators, kinds, flags, permutations.
};
template <Role R> using RoleTag = std::integral_constant<Role, R>;
inline constexpr RoleTag<Role::Operand> kOperand{};
inline constexpr RoleTag<Role::Array> kArray{};
inline constexpr RoleTag<Role::Type> kType{};
inline constexpr RoleTag<Role::Inputs> kInputs{};
inline constexpr RoleTag<Role::Binder> kBinder{};
inline constexpr RoleTag<Role::Lambda> kLambda{};
inline constexpr RoleTag<Role::Body> kBody{};
inline constexpr RoleTag<Role::Payload> kPayload{};

/// Base class of all expressions.
class Exp {
  const ExpKind Kind;

protected:
  explicit Exp(ExpKind K) : Kind(K) {}
  Exp(const Exp &) = default;

public:
  SrcLoc Loc;

  virtual ~Exp();

  ExpKind kind() const { return Kind; }
  /// A deep copy, source location included.
  ExpPtr clone() const;

  /// True for the SOACs of Section 2: map, reduce, scan and streams.
  bool isSOAC() const {
    switch (Kind) {
    case ExpKind::Map:
    case ExpKind::Reduce:
    case ExpKind::Scan:
    case ExpKind::Stream:
    case ExpKind::ReduceByIndex:
      return true;
    default:
      return false;
    }
  }
};

template <typename T> T *expCast(Exp *E) {
  assert(E && E->kind() == T::ClassKind && "expCast to wrong kind");
  return static_cast<T *>(E);
}
template <typename T> const T *expCast(const Exp *E) {
  assert(E && E->kind() == T::ClassKind && "expCast to wrong kind");
  return static_cast<const T *>(E);
}
template <typename T> T *expDynCast(Exp *E) {
  return (E && E->kind() == T::ClassKind) ? static_cast<T *>(E) : nullptr;
}
template <typename T> const T *expDynCast(const Exp *E) {
  return (E && E->kind() == T::ClassKind) ? static_cast<const T *>(E)
                                          : nullptr;
}

/// A bare operand: constant or variable copy-by-reference.
class SubExpExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::SubExpE;
  SubExp Val;

  explicit SubExpExp(SubExp Val) : Exp(ClassKind), Val(std::move(Val)) {}
  SubExpExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.Val);
  }
};

class BinOpExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::BinOpE;
  BinOp Op{};
  SubExp A, B;

  BinOpExp(BinOp Op, SubExp A, SubExp B)
      : Exp(ClassKind), Op(Op), A(std::move(A)), B(std::move(B)) {}
  BinOpExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Op);
    Fn(kOperand, X.A);
    Fn(kOperand, X.B);
  }
};

class UnOpExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::UnOpE;
  UnOp Op{};
  SubExp A;

  UnOpExp(UnOp Op, SubExp A) : Exp(ClassKind), Op(Op), A(std::move(A)) {}
  UnOpExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Op);
    Fn(kOperand, X.A);
  }
};

class ConvOpExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::ConvOpE;
  ConvOp Op{};
  SubExp A;

  ConvOpExp(ConvOp Op, SubExp A) : Exp(ClassKind), Op(Op), A(std::move(A)) {}
  ConvOpExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Op);
    Fn(kOperand, X.A);
  }
};

/// if c then e1 else e2, producing RetTypes.size() values.
class IfExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::If;
  SubExp Cond;
  Body Then, Else;
  std::vector<Type> RetTypes;

  IfExp(SubExp Cond, Body Then, Body Else, std::vector<Type> RetTypes)
      : Exp(ClassKind), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)), RetTypes(std::move(RetTypes)) {}
  IfExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.Cond);
    Fn(kType, X.RetTypes);
    Fn(kBody, X.Then);
    Fn(kBody, X.Else);
  }
};

/// a[i1, ..., ik] — a full scalar read when k equals the rank of a, a slice
/// (which aliases a, cf. ALIAS-SLICEARRAY) when k is smaller.
class IndexExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Index;
  VName Arr;
  std::vector<SubExp> Indices;

  IndexExp(VName Arr, std::vector<SubExp> Indices)
      : Exp(ClassKind), Arr(std::move(Arr)), Indices(std::move(Indices)) {}
  IndexExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kArray, X.Arr);
    Fn(kOperand, X.Indices);
  }
};

/// Call of a named top-level function.
class ApplyExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Apply;
  std::string Func;
  std::vector<SubExp> Args;

  ApplyExp(std::string Func, std::vector<SubExp> Args)
      : Exp(ClassKind), Func(std::move(Func)), Args(std::move(Args)) {}
  ApplyExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Func);
    Fn(kOperand, X.Args);
  }
};

/// loop (p1 = a1, ..., pn = an) for i < w do body — sequential semantics,
/// equivalent to the tail-recursive function of Fig 2.
class LoopExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Loop;
  std::vector<Param> MergeParams;
  std::vector<SubExp> MergeInit;
  VName IndexVar;
  SubExp Bound;
  Body LoopBody;

  LoopExp(std::vector<Param> MergeParams, std::vector<SubExp> MergeInit,
          VName IndexVar, SubExp Bound, Body LoopBody)
      : Exp(ClassKind), MergeParams(std::move(MergeParams)),
        MergeInit(std::move(MergeInit)), IndexVar(std::move(IndexVar)),
        Bound(std::move(Bound)), LoopBody(std::move(LoopBody)) {}
  LoopExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.MergeInit);
    Fn(kOperand, X.Bound);
    Fn(kBinder, X.IndexVar);
    Fn(kBinder, X.MergeParams);
    Fn(kBody, X.LoopBody);
  }
};

/// a with [i1, ..., ik] <- v — the in-place update of Section 3, consuming a.
class UpdateExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Update;
  VName Arr;
  std::vector<SubExp> Indices;
  SubExp Value;

  UpdateExp(VName Arr, std::vector<SubExp> Indices, SubExp Value)
      : Exp(ClassKind), Arr(std::move(Arr)), Indices(std::move(Indices)),
        Value(std::move(Value)) {}
  UpdateExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kArray, X.Arr);
    Fn(kOperand, X.Indices);
    Fn(kOperand, X.Value);
  }
};

/// iota n = [0, 1, ..., n-1] of the given integer kind.
class IotaExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Iota;
  SubExp N;
  ScalarKind Elem = ScalarKind::I32;

  IotaExp(SubExp N, ScalarKind Elem = ScalarKind::I32)
      : Exp(ClassKind), N(std::move(N)), Elem(Elem) {}
  IotaExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.N);
    Fn(kPayload, X.Elem);
  }
};

/// replicate n v = [v, ..., v] (n copies); v may itself be an array.
class ReplicateExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Replicate;
  SubExp N;
  SubExp Val;
  Type ValType; ///< Type of Val, so the result type is known locally.

  ReplicateExp(SubExp N, SubExp Val, Type ValType)
      : Exp(ClassKind), N(std::move(N)), Val(std::move(Val)),
        ValType(std::move(ValType)) {}
  ReplicateExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.N);
    Fn(kOperand, X.Val);
    Fn(kType, X.ValType);
  }
};

/// rearrange (k0, ..., k_{r-1}) a — reorder dimensions by a static
/// permutation; transpose a is rearrange (1,0,...).
class RearrangeExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Rearrange;
  std::vector<int> Perm;
  VName Arr;

  RearrangeExp(std::vector<int> Perm, VName Arr)
      : Exp(ClassKind), Perm(std::move(Perm)), Arr(std::move(Arr)) {}
  RearrangeExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Perm);
    Fn(kArray, X.Arr);
  }
};

/// reshape (d1, ..., dk) a — same elements, new regular shape.
class ReshapeExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Reshape;
  std::vector<SubExp> NewShape;
  VName Arr;

  ReshapeExp(std::vector<SubExp> NewShape, VName Arr)
      : Exp(ClassKind), NewShape(std::move(NewShape)), Arr(std::move(Arr)) {}
  ReshapeExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.NewShape);
    Fn(kArray, X.Arr);
  }
};

/// concat a1 ... ak along the outer dimension.
class ConcatExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Concat;
  std::vector<VName> Arrays;

  explicit ConcatExp(std::vector<VName> Arrays)
      : Exp(ClassKind), Arrays(std::move(Arrays)) {}
  ConcatExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kArray, X.Arrays);
  }
};

/// slice a off len stride — the rows off, off+stride, ..., (len of them);
/// aliases a.  Introduced by the flattener to hand stream chunks to device
/// threads (with stride = the chunk count, so that simultaneous accesses
/// from consecutive chunks coalesce); also the bulk form of
/// ALIAS-SLICEARRAY with stride 1.
class SliceExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Slice;
  VName Arr;
  SubExp Offset;
  SubExp Len;
  SubExp Stride;

  SliceExp(VName Arr, SubExp Offset, SubExp Len,
           SubExp Stride = SubExp::constant(PrimValue::makeI32(1)))
      : Exp(ClassKind), Arr(std::move(Arr)), Offset(std::move(Offset)),
        Len(std::move(Len)), Stride(std::move(Stride)) {}
  SliceExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kArray, X.Arr);
    Fn(kOperand, X.Offset);
    Fn(kOperand, X.Len);
    Fn(kOperand, X.Stride);
  }
};

/// copy a — a fresh, alias-free duplicate (used to satisfy uniqueness).
class CopyExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Copy;
  VName Arr;

  explicit CopyExp(VName Arr) : Exp(ClassKind), Arr(std::move(Arr)) {}
  CopyExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kArray, X.Arr);
  }
};

/// map f a1 ... aq over arrays of outer size Width.
class MapExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Map;
  SubExp Width;
  Lambda Fn;
  std::vector<VName> Arrays;

  MapExp(SubExp Width, Lambda Fn, std::vector<VName> Arrays)
      : Exp(ClassKind), Width(std::move(Width)), Fn(std::move(Fn)),
        Arrays(std::move(Arrays)) {}
  MapExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.Width);
    Fn(kArray, X.Arrays);
    Fn(kLambda, X.Fn);
  }
};

/// reduce f (n1, ..., nk) a1 ... ak — f must be associative (a programmer
/// obligation, as in the paper); Commutative additionally promises
/// commutativity, enabling more scheduling freedom in the simulator.
class ReduceExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Reduce;
  SubExp Width;
  Lambda Fn;
  std::vector<SubExp> Neutral;
  std::vector<VName> Arrays;
  bool Commutative = false;

  ReduceExp(SubExp Width, Lambda Fn, std::vector<SubExp> Neutral,
            std::vector<VName> Arrays, bool Commutative = false)
      : Exp(ClassKind), Width(std::move(Width)), Fn(std::move(Fn)),
        Neutral(std::move(Neutral)), Arrays(std::move(Arrays)),
        Commutative(Commutative) {}
  ReduceExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.Width);
    Fn(kOperand, X.Neutral);
    Fn(kArray, X.Arrays);
    Fn(kPayload, X.Commutative);
    Fn(kLambda, X.Fn);
  }
};

/// scan f (n1, ..., nk) a1 ... ak — inclusive prefix sums.
class ScanExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Scan;
  SubExp Width;
  Lambda Fn;
  std::vector<SubExp> Neutral;
  std::vector<VName> Arrays;

  ScanExp(SubExp Width, Lambda Fn, std::vector<SubExp> Neutral,
          std::vector<VName> Arrays)
      : Exp(ClassKind), Width(std::move(Width)), Fn(std::move(Fn)),
        Neutral(std::move(Neutral)), Arrays(std::move(Arrays)) {}
  ScanExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.Width);
    Fn(kOperand, X.Neutral);
    Fn(kArray, X.Arrays);
    Fn(kLambda, X.Fn);
  }
};

/// reduce_by_index dest f ne is vs1 ... vsq — the generalized histogram
/// SOAC (diku-dk/futhark-cgo20).  Dest is a one-dimensional accumulator of
/// Width elements, consumed in place; IndexArr and the value arrays share
/// an outer size n.  For every j in ascending order with
/// 0 <= is[j] < Width:
///   dest[is[j]] = CombineFn(dest[is[j]], ValueFn(vs1[j], ..., vsq[j]))
/// Out-of-bounds indices are skipped (not an error) on every execution
/// path, so the compiled and interpreted results agree bit for bit.
/// CombineFn must be associative and commutative with neutral element
/// Neutral (a programmer obligation, as for reduce); ValueFn starts as the
/// identity and grows by fusing producer maps into it.
class ReduceByIndexExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::ReduceByIndex;
  SubExp Width;   ///< Number of bins (outer size of Dest).
  VName Dest;     ///< The consumed destination array, type [Width]t.
  Lambda CombineFn; ///< (t, t) -> t, associative + commutative.
  SubExp Neutral; ///< Neutral element of CombineFn, type t.
  Lambda ValueFn; ///< (row(vs1), ..., row(vsq)) -> t.
  VName IndexArr; ///< [n] of an integer kind: the bin per element.
  std::vector<VName> ValueArrs; ///< q arrays of outer size n.

  ReduceByIndexExp(SubExp Width, VName Dest, Lambda CombineFn, SubExp Neutral,
                   Lambda ValueFn, VName IndexArr, std::vector<VName> ValueArrs)
      : Exp(ClassKind), Width(std::move(Width)), Dest(std::move(Dest)),
        CombineFn(std::move(CombineFn)), Neutral(std::move(Neutral)),
        ValueFn(std::move(ValueFn)), IndexArr(std::move(IndexArr)),
        ValueArrs(std::move(ValueArrs)) {}
  ReduceByIndexExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kOperand, X.Width);
    Fn(kArray, X.Dest);
    Fn(kOperand, X.Neutral);
    Fn(kArray, X.IndexArr);
    Fn(kArray, X.ValueArrs);
    Fn(kLambda, X.CombineFn);
    Fn(kLambda, X.ValueFn);
  }
};

/// The streaming SOACs of Section 4 (Fig 8), unified in one node.
///
/// The fold function's parameter convention is:
///   params = [ chunkSize : i64 ] ++ accParams (NumAccs) ++ chunkArrayParams
/// where each chunk array param has outer dimension chunkSize.  Its results
/// are NumAccs accumulator values followed by per-chunk mapped arrays (whose
/// concatenation across chunks forms the stream's array results).
///
///  - Par ("stream_map"):   NumAccs == 0; chunks processed in parallel.
///  - Red ("stream_red"):   chunks in parallel; accumulator results combined
///                          across chunks with ReduceFn (associative).
///  - Seq ("stream_seq"):   chunks in order; accumulator threads through.
class StreamExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Stream;
  enum class FormKind : uint8_t { Par, Red, Seq };

  FormKind Form = FormKind::Par;
  SubExp Width;
  Lambda ReduceFn; ///< Only meaningful for Red.
  int NumAccs = 0;
  std::vector<SubExp> AccInit;
  Lambda FoldFn;
  std::vector<VName> Arrays;

  StreamExp(FormKind Form, SubExp Width, Lambda ReduceFn, int NumAccs,
            std::vector<SubExp> AccInit, Lambda FoldFn,
            std::vector<VName> Arrays)
      : Exp(ClassKind), Form(Form), Width(std::move(Width)),
        ReduceFn(std::move(ReduceFn)), NumAccs(NumAccs),
        AccInit(std::move(AccInit)), FoldFn(std::move(FoldFn)),
        Arrays(std::move(Arrays)) {}
  StreamExp() : Exp(ClassKind) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Form);
    Fn(kPayload, X.NumAccs);
    Fn(kOperand, X.Width);
    Fn(kOperand, X.AccInit);
    Fn(kArray, X.Arrays);
    Fn(kLambda, X.ReduceFn, X.Form == FormKind::Red);
    Fn(kLambda, X.FoldFn);
  }

  const char *formName() const {
    switch (Form) {
    case FormKind::Par:
      return "stream_map";
    case FormKind::Red:
      return "stream_red";
    case FormKind::Seq:
      return "stream_seq";
    }
    return "?";
  }
};

/// A GPU kernel: the perfect nest produced by the flattening rules of
/// Section 5.  GridDims are the parallel map dimensions (outermost first);
/// ThreadIndices bind the per-thread coordinates inside ThreadBody.
///
/// For Op == ThreadBody, each thread computes ThreadBody and its results are
/// gathered into arrays of shape GridDims ++ (per-result inner shape).
/// For Op == SegReduce/SegScan there is an additional innermost dimension
/// SegSize; ThreadBody computes the per-element values which the device then
/// combines per segment with ReduceFn (a segmented reduction/scan, cf. the
/// paper's footnote 5 and rule G5).
class KernelExp : public Exp {
public:
  static constexpr ExpKind ClassKind = ExpKind::Kernel;
  enum class OpKind : uint8_t { ThreadBody, SegReduce, SegScan, SegHist };

  /// An input array visible to threads, with its global-memory layout.
  /// LayoutPerm maps logical indices to storage order: the stored shape is
  /// shape permuted by LayoutPerm, row-major.  Identity = row-major.
  /// Tiled marks arrays staged through workgroup-local memory (Section 5.2).
  struct KInput {
    VName Arr;
    Type Ty;
    std::vector<int> LayoutPerm;
    bool Tiled = false;

    template <class Self, class F> static void fields(Self &X, F &&Fn) {
      Fn(kArray, X.Arr);
      Fn(kType, X.Ty);
      Fn(kPayload, X.LayoutPerm);
      Fn(kPayload, X.Tiled);
    }
  };

  OpKind Op;
  std::vector<SubExp> GridDims;
  std::vector<VName> ThreadIndices;
  SubExp SegSize;           ///< Only for SegReduce/SegScan.
  VName SegIndex;           ///< Position within segment (SegReduce/SegScan).
  Lambda ReduceFn;          ///< Only for SegReduce/SegScan.
  std::vector<SubExp> Neutral;
  std::vector<KInput> Inputs;
  Body ThreadBody;
  std::vector<Type> RetTypes; ///< Full result-array types.

  /// For Op == SegHist only: the consumed destination accumulator (a host
  /// array of HistWidth elements) and the bin count.  ThreadBody computes
  /// (bin index, value) per element; the device folds each value into the
  /// destination bin with ReduceFn, atomically.
  VName HistDest;
  SubExp HistWidth;

  /// Store per-thread array results transposed (thread index innermost),
  /// so output writes coalesce — Section 5.2's treatment of results and
  /// temporaries.  Set by the locality pass.
  bool TransposedOutputs = false;

  KernelExp() : Exp(ClassKind), Op(OpKind::ThreadBody) {}
  template <class Self, class F> static void fields(Self &X, F &&Fn) {
    Fn(kPayload, X.Op);
    Fn(kPayload, X.TransposedOutputs);
    Fn(kOperand, X.GridDims);
    Fn(kOperand, X.SegSize, X.isSegmented());
    Fn(kArray, X.HistDest, X.Op == OpKind::SegHist);
    Fn(kOperand, X.HistWidth, X.Op == OpKind::SegHist);
    Fn(kOperand, X.Neutral);
    Fn(kInputs, X.Inputs);
    Fn(kType, X.RetTypes);
    Fn(kBinder, X.ThreadIndices);
    Fn(kBinder, X.SegIndex, X.isSegmented());
    Fn(kLambda, X.ReduceFn, X.usesReduceFn());
    Fn(kBody, X.ThreadBody);
  }

  /// SegReduce/SegScan: grid × SegSize threads with a per-segment combine.
  /// SegHist is NOT segmented — it is grid-shaped like ThreadBody (one
  /// thread per input element) but folds (bin, value) pairs into HistDest
  /// with ReduceFn instead of gathering results.
  bool isSegmented() const {
    return Op == OpKind::SegReduce || Op == OpKind::SegScan;
  }
  /// True when ReduceFn/Neutral are meaningful (everything but ThreadBody).
  bool usesReduceFn() const { return Op != OpKind::ThreadBody; }
  KInput *findInput(const VName &N) {
    for (KInput &In : Inputs)
      if (In.Arr == N)
        return &In;
    return nullptr;
  }
};

/// A top-level function definition.
struct FunDef {
  std::string Name;
  std::vector<Param> Params;
  std::vector<Type> RetTypes;
  Body FBody;
};

/// A whole program: a set of named functions; "main" is the entry point.
struct Program {
  std::vector<FunDef> Funs;

  FunDef *findFun(const std::string &Name) {
    for (FunDef &F : Funs)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
  const FunDef *findFun(const std::string &Name) const {
    for (const FunDef &F : Funs)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

/// Deep copies.
Body cloneBody(const Body &B);
Lambda cloneLambda(const Lambda &L);

} // namespace fut

#endif // FUTHARKCC_IR_IR_H
