//===- Printer.cpp - Human-readable IR dumping -----------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "support/Utils.h"

#include <sstream>

using namespace fut;

namespace {

std::string ind(int N) { return std::string(N, ' '); }

std::string subExps(const std::vector<SubExp> &Ss) {
  return joinMapped(Ss, ", ", [](const SubExp &S) { return S.str(); });
}

std::string names(const std::vector<VName> &Ns) {
  return joinMapped(Ns, " ", [](const VName &N) { return N.str(); });
}

std::string pattern(const std::vector<Param> &Ps) {
  if (Ps.size() == 1)
    return Ps[0].str();
  return std::string("(")
      .append(joinMapped(Ps, ", ", [](const Param &P) { return P.str(); }))
      .append(")");
}

} // namespace

std::string fut::printLambda(const Lambda &L, int Indent) {
  std::ostringstream OS;
  OS << "(\\"
     << joinMapped(L.Params, " ",
                   [](const Param &P) {
                     return std::string("(").append(P.str()).append(")");
                   })
     << ": ("
     << joinMapped(L.RetTypes, ", ", [](const Type &T) { return T.str(); })
     << ") ->\n";
  OS << printBody(L.B, Indent + 2) << ind(Indent) << ")";
  return OS.str();
}

std::string fut::printExp(const Exp &E, int Indent) {
  std::ostringstream OS;
  switch (E.kind()) {
  case ExpKind::SubExpE:
    OS << expCast<SubExpExp>(&E)->Val.str();
    break;
  case ExpKind::BinOpE: {
    const auto *X = expCast<BinOpExp>(&E);
    OS << X->A.str() << " " << binOpName(X->Op) << " " << X->B.str();
    break;
  }
  case ExpKind::UnOpE: {
    const auto *X = expCast<UnOpExp>(&E);
    OS << unOpName(X->Op) << " " << X->A.str();
    break;
  }
  case ExpKind::ConvOpE: {
    const auto *X = expCast<ConvOpExp>(&E);
    OS << scalarKindName(X->Op.To) << " " << X->A.str();
    break;
  }
  case ExpKind::If: {
    const auto *X = expCast<IfExp>(&E);
    OS << "if " << X->Cond.str() << "\n"
       << ind(Indent) << "then\n"
       << printBody(X->Then, Indent + 2) << ind(Indent) << "else\n"
       << printBody(X->Else, Indent + 2) << ind(Indent) << "fi";
    break;
  }
  case ExpKind::Index: {
    const auto *X = expCast<IndexExp>(&E);
    OS << X->Arr.str() << "[" << subExps(X->Indices) << "]";
    break;
  }
  case ExpKind::Apply: {
    const auto *X = expCast<ApplyExp>(&E);
    OS << X->Func << "(" << subExps(X->Args) << ")";
    break;
  }
  case ExpKind::Loop: {
    const auto *X = expCast<LoopExp>(&E);
    OS << "loop (";
    for (size_t I = 0; I < X->MergeParams.size(); ++I) {
      if (I)
        OS << ", ";
      OS << X->MergeParams[I].str() << " = " << X->MergeInit[I].str();
    }
    OS << ") for " << X->IndexVar.str() << " < " << X->Bound.str() << " do\n"
       << printBody(X->LoopBody, Indent + 2) << ind(Indent) << "pool";
    break;
  }
  case ExpKind::Update: {
    const auto *X = expCast<UpdateExp>(&E);
    OS << X->Arr.str() << " with [" << subExps(X->Indices) << "] <- "
       << X->Value.str();
    break;
  }
  case ExpKind::Iota: {
    const auto *X = expCast<IotaExp>(&E);
    OS << "iota " << X->N.str() << " : " << scalarKindName(X->Elem);
    break;
  }
  case ExpKind::Replicate: {
    const auto *X = expCast<ReplicateExp>(&E);
    OS << "replicate " << X->N.str() << " " << X->Val.str();
    break;
  }
  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    OS << "rearrange ("
       << joinMapped(X->Perm, ",", [](int P) { return std::to_string(P); })
       << ") " << X->Arr.str();
    break;
  }
  case ExpKind::Reshape: {
    const auto *X = expCast<ReshapeExp>(&E);
    OS << "reshape (" << subExps(X->NewShape) << ") " << X->Arr.str();
    break;
  }
  case ExpKind::Concat: {
    const auto *X = expCast<ConcatExp>(&E);
    OS << "concat " << names(X->Arrays);
    break;
  }
  case ExpKind::Copy:
    OS << "copy " << expCast<CopyExp>(&E)->Arr.str();
    break;
  case ExpKind::Slice: {
    const auto *X = expCast<SliceExp>(&E);
    OS << "slice " << X->Arr.str() << " " << X->Offset.str() << " "
       << X->Len.str() << " " << X->Stride.str();
    break;
  }
  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    OS << "map<" << X->Width.str() << "> " << printLambda(X->Fn, Indent)
       << " " << names(X->Arrays);
    break;
  }
  case ExpKind::Reduce: {
    const auto *X = expCast<ReduceExp>(&E);
    OS << "reduce<" << X->Width.str() << "> " << printLambda(X->Fn, Indent)
       << " (" << subExps(X->Neutral) << ") " << names(X->Arrays);
    break;
  }
  case ExpKind::Scan: {
    const auto *X = expCast<ScanExp>(&E);
    OS << "scan<" << X->Width.str() << "> " << printLambda(X->Fn, Indent)
       << " (" << subExps(X->Neutral) << ") " << names(X->Arrays);
    break;
  }
  case ExpKind::Stream: {
    const auto *X = expCast<StreamExp>(&E);
    OS << X->formName() << "<" << X->Width.str() << "> ";
    if (X->Form == StreamExp::FormKind::Red)
      OS << printLambda(X->ReduceFn, Indent) << " ";
    OS << printLambda(X->FoldFn, Indent);
    if (!X->AccInit.empty())
      OS << " (" << subExps(X->AccInit) << ")";
    OS << " " << names(X->Arrays);
    break;
  }
  case ExpKind::ReduceByIndex: {
    const auto *X = expCast<ReduceByIndexExp>(&E);
    OS << "reduce_by_index<" << X->Width.str() << "> " << X->Dest.str() << " "
       << printLambda(X->CombineFn, Indent) << " (" << X->Neutral.str() << ") "
       << printLambda(X->ValueFn, Indent) << " " << X->IndexArr.str() << " "
       << names(X->ValueArrs);
    break;
  }
  case ExpKind::Kernel: {
    const auto *X = expCast<KernelExp>(&E);
    OS << "kernel";
    switch (X->Op) {
    case KernelExp::OpKind::ThreadBody:
      break;
    case KernelExp::OpKind::SegReduce:
      OS << "_segreduce";
      break;
    case KernelExp::OpKind::SegScan:
      OS << "_segscan";
      break;
    case KernelExp::OpKind::SegHist:
      OS << "_seghist";
      break;
    }
    OS << " grid=[" << subExps(X->GridDims) << "]";
    OS << " tids=(" << names(X->ThreadIndices) << ")";
    if (X->Op == KernelExp::OpKind::SegHist)
      OS << " dest=" << X->HistDest.str() << " bins=" << X->HistWidth.str();
    if (X->isSegmented())
      OS << " seg=" << X->SegIndex.str() << "<" << X->SegSize.str();
    OS << "\n" << ind(Indent + 2) << "inputs: ";
    for (const KernelExp::KInput &In : X->Inputs) {
      OS << In.Arr.str() << ":" << In.Ty.str();
      bool Identity = true;
      for (size_t I = 0; I < In.LayoutPerm.size(); ++I)
        Identity = Identity && In.LayoutPerm[I] == static_cast<int>(I);
      if (!Identity)
        OS << "@("
           << joinMapped(In.LayoutPerm, ",",
                         [](int P) { return std::to_string(P); })
           << ")";
      if (In.Tiled)
        OS << "[tiled]";
      OS << " ";
    }
    OS << "\n";
    if (X->usesReduceFn()) {
      OS << ind(Indent + 2) << "op: " << printLambda(X->ReduceFn, Indent + 2)
         << " (" << subExps(X->Neutral) << ")\n";
    }
    OS << printBody(X->ThreadBody, Indent + 2);
    OS << ind(Indent) << "lenrek : ("
       << joinMapped(X->RetTypes, ", ", [](const Type &T) { return T.str(); })
       << ")";
    break;
  }
  }
  return OS.str();
}

std::string fut::printBody(const Body &B, int Indent) {
  std::ostringstream OS;
  for (const Stm &S : B.Stms) {
    OS << ind(Indent) << "let " << pattern(S.Pat) << " =\n      " << ind(Indent)
       << printExp(*S.E, Indent + 6) << "\n";
  }
  OS << ind(Indent) << "in (" << subExps(B.Result) << ")\n";
  return OS.str();
}

std::string fut::printFunDef(const FunDef &F) {
  std::ostringstream OS;
  OS << "fun " << F.Name << " "
     << joinMapped(F.Params, " ",
                   [](const Param &P) {
                     return std::string("(").append(P.str()).append(")");
                   })
     << ": ("
     << joinMapped(F.RetTypes, ", ", [](const Type &T) { return T.str(); })
     << ") =\n"
     << printBody(F.FBody, 2);
  return OS.str();
}

std::string fut::printProgram(const Program &P) {
  return joinMapped(P.Funs, "\n",
                    [](const FunDef &F) { return printFunDef(F); });
}
